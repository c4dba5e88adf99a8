"""Shared fixtures: a small continuous schema and a minimal runnable scenario,
plus three oracles: plain-mean aggregation, the per-report aggregate and the
per-sample session run, and trace_events, a session trace's events in time
order."""

import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mlt.agents import SECONDS_PER_HOUR, AttributeGenerator, ProviderProfile, ReporterProfile
from mlt.session import ORDINAL, AttributeSchema, AttributeSpec, PerformanceVector, ServiceSession
from mlt.simulator import (
    Bystander,
    Consumer,
    ConsumerUsage,
    ProbeSchedule,
    Scenario,
    run_scenario,
)
from mlt.trust import (
    AccumulatedReport,
    AggregationParams,
    InstantaneousReport,
    NoEvidenceError,
    ReporterTerm,
    aggregate,
    update_accumulated,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def aggregate_basic(consumer_reports, bystander_reports) -> float:
    """Plain mean of every report's trust value, with no weighting at all."""
    values = [r.trust for r in consumer_reports] + [r.trust for r in bystander_reports]
    if not values:
        raise NoEvidenceError("no consumer or bystander reports to aggregate")
    return sum(values) / len(values)


def _left_sum(values):
    """values added left to right from 0.0, the order aggregate() is held to."""
    total = 0.0
    for v in values:
        total = total + v
    return total


def _oracle_check_unit(label: str, x: float) -> None:
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{label} must be in [0, 1], got {x}")


def _shares_oracle(values):
    """Each value over the sum of values; a sum past the float range is taken
    over the values divided by the largest one instead."""
    if _left_sum(values) == math.inf:
        top = max(values)
        values = [v / top for v in values]
    total = _left_sum(values)
    return [v / total for v in values]


def freshness_weights_oracle(reports):
    """Bystander weights, one report at a time: offset over the sum of offsets."""
    if not reports:
        raise ValueError("freshness weights need at least one report")
    offsets = [r.timestamp_offset for r in reports]
    if _left_sum(offsets) <= 0:
        n = len(reports)
        return [1.0 / n] * n, True
    return _shares_oracle(offsets), False


def coverage_weights_oracle(reports):
    """Consumer weights, one report at a time: duration over the sum of durations."""
    if not reports:
        raise ValueError("coverage weights need at least one report")
    return _shares_oracle([r.coverage_duration for r in reports])


def credibilities_oracle(values):
    """One minus each value's distance from the pooled mean, each value checked first."""
    if not values:
        raise ValueError("credibilities need at least one value")
    for v in values:
        _oracle_check_unit("trust value", v)
    mean = _left_sum(values) / len(values)
    return [1.0 - abs(v - mean) for v in values]


def aggregate_oracle(consumer_reports, bystander_reports, params=AggregationParams(), *,
                     use_credibility=True):
    """The per-report aggregate: generator sums and an eager per-reporter tuple.

    It returns the fields of a TrustBreakdown, with per_reporter built at
    once, that aggregate() must reproduce exactly.
    """
    consumer_reports = list(consumer_reports)
    bystander_reports = list(bystander_reports)
    if not consumer_reports and not bystander_reports:
        raise NoEvidenceError("no consumer or bystander reports to aggregate")

    pooled = [r.trust for r in consumer_reports] + [r.trust for r in bystander_reports]
    creds = credibilities_oracle(pooled) if use_credibility else [1.0] * len(pooled)
    cred_c = creds[: len(consumer_reports)]
    cred_b = creds[len(consumer_reports):]

    degenerate = False
    weights_c, weights_b = [], []
    if consumer_reports:
        weights_c = coverage_weights_oracle(consumer_reports)
    if bystander_reports:
        weights_b, degenerate = freshness_weights_oracle(bystander_reports)

    def group_term(trusts, weights, creds_):
        weighted = _left_sum(c * w * t for c, w, t in zip(creds_, weights, trusts))
        if params.mode == "normalized":
            return weighted / _left_sum(c * w for c, w in zip(creds_, weights))
        return min(weighted, 1.0)  # weights summing a few ulps past 1 can push it past 1

    consumer_term = bystander_term = 0.0
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
        [ReporterTerm(r.reporter_id, r.trust, w, c) for r, w, c in zip(consumer_reports, weights_c, cred_c)]
        + [ReporterTerm(r.reporter_id, r.trust, w, c) for r, w, c in zip(bystander_reports, weights_b, cred_b)]
    )
    return SimpleNamespace(
        overall=overall,
        per_reporter=per_reporter,
        consumer_term=consumer_term,
        bystander_term=bystander_term,
        degenerate_freshness=degenerate,
    )


def _oracle_clamp(spec, latent: float) -> float:
    if spec.kind == ORDINAL:
        lo, hi = spec.level_range
        return float(min(hi, max(lo, math.floor(latent + 0.5))))
    return max(0.0, float(latent))


def _oracle_trust(values, promise) -> float:
    return _left_sum(min(1.0, o / p) for o, p in zip(values, promise.values)) / len(promise.values)


PROBE = "probe"
SAMPLE = "sample"
ACCUMULATE = "accumulate"


@dataclass(frozen=True)
class TraceEvent:
    offset: float
    reporter_id: str
    kind: str  # probe | sample | accumulate
    value: float


def trace_events(trace):
    """Every event of a SessionTrace, time-ordered, ties broken by reporter id
    (a consumer's sample precedes the accumulate it feeds)."""
    events = []
    for s in trace.series:
        if s.accumulated is None:
            events.extend(TraceEvent(t, s.reporter_id, PROBE, v)
                          for t, v in zip(s.offsets, s.reported))
            continue
        for t, v, acc in zip(s.offsets, s.reported, s.accumulated):
            events.append(TraceEvent(t, s.reporter_id, SAMPLE, v))
            events.append(TraceEvent(t, s.reporter_id, ACCUMULATE, acc))
    events.sort(key=lambda e: (e.offset, e.reporter_id))
    return tuple(events)


def _oracle_probe_times(schedule, q):
    """A bystander's probe offsets up to query time q, one probe at a time."""
    times = []
    for k in range(schedule.count):
        t = schedule.first_offset + k * schedule.interval
        if t > q + 1e-9:
            break
        times.append(t)
    return times


def _oracle_sample_times(usage, q):
    """A consumer's sample offsets up to query time q or the end of its window,
    one sample at a time."""
    if usage.usage_start >= q:
        return []
    span = min(usage.usage_end, q) - usage.usage_start
    times, m = [], 0
    while m <= span / usage.sample_interval + 1e-9:
        times.append(usage.usage_start + m * usage.sample_interval)
        m += 1
    return times


def run_scenario_oracle(scenario):
    """The per-sample session run: per event, one PerformanceVector with one
    scalar draw per attribute from the agent's truth stream and, for a random
    reporter, one draw from its own stream; each stream is built by numpy.

    It returns the fields of a SessionTrace that the batched simulator must
    reproduce exactly.
    """
    provider = scenario.provider
    promise = scenario.session.promise
    schema = promise.schema
    q = scenario.query_time

    def sample(t, rng):
        values = []
        for spec, gen in zip(schema.attributes, provider.attributes):
            latent = gen.mean * (1.0 - provider.honesty_gap) + gen.drift_per_hour * (t / SECONDS_PER_HOUR)
            latent += rng.normal(0.0, gen.jitter_stddev)
            values.append(_oracle_clamp(spec, latent))
        return PerformanceVector(tuple(values), schema).values

    def observe(profile, true_trust, rng):
        if profile.kind == "honest":
            return true_trust
        if profile.kind == "biased":
            return min(1.0, max(0.0, true_trust + profile.bias_offset))
        if profile.malicious_strategy == "random":
            return float(rng.uniform(0.0, 1.0))
        return 1.0 - true_trust

    key = np.random.SeedSequence(scenario.seed).generate_state(2, np.uint64)

    def streams(group, slot):
        """The agent's truth stream and its own stream."""
        return [np.random.Generator(np.random.Philox(key=key, counter=[0, kind, slot, group]))
                for kind in (0, 1)]

    events, bystander_reports, consumer_reports = [], [], []
    for i, b in enumerate(scenario.bystanders):
        truth, own = streams(0, i)
        last = None
        for t in _oracle_probe_times(b.schedule, q):
            reported = observe(b.profile, _oracle_trust(sample(t, truth), promise), own)
            events.append(TraceEvent(t, b.id, PROBE, reported))
            last = (t, reported)
        if last is not None:
            bystander_reports.append(InstantaneousReport(b.id, last[1], last[0]))
    for j, c in enumerate(scenario.consumers):
        truth, own = streams(1, j)
        acc, count = None, 0
        for t in _oracle_sample_times(c.usage, q):
            reported = observe(c.profile, _oracle_trust(sample(t, truth), promise), own)
            events.append(TraceEvent(t, c.id, SAMPLE, reported))
            acc = reported if acc is None else update_accumulated(acc, reported, scenario.params.alpha)
            events.append(TraceEvent(t, c.id, ACCUMULATE, acc))
            count += 1
        if acc is not None:
            coverage = min(q, c.usage.usage_end) - c.usage.usage_start
            consumer_reports.append(AccumulatedReport(c.id, acc, coverage, count))
    events.sort(key=lambda e: (e.offset, e.reporter_id))

    noise_free = [_oracle_clamp(spec, gen.mean * (1.0 - provider.honesty_gap))
                  for spec, gen in zip(schema.attributes, provider.attributes)]
    return SimpleNamespace(
        events=tuple(events),
        final_breakdown=aggregate(consumer_reports, bystander_reports, scenario.params),
        ground_truth_trust=_oracle_trust(noise_free, promise),
        consumer_reports=tuple(consumer_reports),
        bystander_reports=tuple(bystander_reports),
    )


def assert_matches_the_per_sample_oracle(scenario):
    """run_scenario gives the oracle's reports, aggregate, ground truth and
    events exactly, or raises NoEvidenceError where it does."""
    try:
        expected = run_scenario_oracle(scenario)
    except NoEvidenceError:
        with pytest.raises(NoEvidenceError):
            run_scenario(scenario)
        return
    got = run_scenario(scenario)
    assert got.consumer_reports == expected.consumer_reports
    assert got.bystander_reports == expected.bystander_reports
    assert got.final_breakdown == expected.final_breakdown
    assert got.ground_truth_trust == expected.ground_truth_trust
    events = trace_events(got)
    assert events == expected.events
    assert all(type(e.value) is float for e in events)


@pytest.fixture
def schema():
    return AttributeSchema(
        (
            AttributeSpec("speed", unit="mbps"),
            AttributeSpec("availability", unit="%"),
            AttributeSpec("signal", unit="%"),
        )
    )


@pytest.fixture
def promise(schema):
    return PerformanceVector((10.0, 90.0, 80.0), schema)


@pytest.fixture
def session(promise):
    return ServiceSession(
        id="s-test",
        location=(48.2, 16.37),
        start_time=0.0,
        end_time=7200.0,
        provider_id="prov",
        service_type="wifi-hotspot",
        promise=promise,
    )


def make_provider(promise, honesty_gap=0.0, jitter_rel=0.0, drift_rel=0.0):
    gens = tuple(
        AttributeGenerator(
            mean=p, jitter_stddev=jitter_rel * p, drift_per_hour=drift_rel * p
        )
        for p in promise.values
    )
    return ProviderProfile(attributes=gens, honesty_gap=honesty_gap)


def make_scenario(session, provider, bystanders=(), consumers=(),
                  params=None, query_time=5400.0, seed=1234):
    return Scenario(
        session=session,
        provider=provider,
        bystanders=tuple(bystanders),
        consumers=tuple(consumers),
        params=params or AggregationParams(mode="normalized"),
        query_time=query_time,
        seed=seed,
    )


@pytest.fixture
def honest():
    return ReporterProfile("honest")


@pytest.fixture
def tiny_scenario(session, promise, honest):
    """One honest bystander and one honest consumer, no noise."""
    provider = make_provider(promise, honesty_gap=0.2)
    return make_scenario(
        session,
        provider,
        bystanders=[Bystander("b00", honest, ProbeSchedule(600.0, 1200.0, 3))],
        consumers=[Consumer("c00", honest, ConsumerUsage(0.0, 3600.0, 600.0))],
    )
