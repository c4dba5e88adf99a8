"""Shared fixtures: a small continuous schema and a minimal runnable scenario,
plus two oracles: plain-mean aggregation and the per-sample session run."""

import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mlt.agents import SECONDS_PER_HOUR, AttributeGenerator, ProviderProfile, ReporterProfile
from mlt.session import ORDINAL, AttributeSchema, AttributeSpec, PerformanceVector, ServiceSession
from mlt.simulator import (
    ACCUMULATE,
    PROBE,
    SAMPLE,
    Bystander,
    Consumer,
    ConsumerUsage,
    ProbeSchedule,
    Scenario,
    TraceEvent,
    _probe_times,
    _sample_times,
)
from mlt.trust import (
    AccumulatedReport,
    AggregationParams,
    InstantaneousReport,
    NoEvidenceError,
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


def _oracle_clamp(spec, latent: float) -> float:
    if spec.kind == ORDINAL:
        lo, hi = spec.level_range
        return float(min(hi, max(lo, math.floor(latent + 0.5))))
    return max(0.0, float(latent))


def _oracle_trust(values, promise) -> float:
    total = 0.0  # left to right, as Python 3.11's sum() adds floats
    for o, p in zip(values, promise.values):
        total += min(1.0, o / p)
    return total / len(promise.values)


def run_scenario_oracle(scenario):
    """The per-sample session run: one PerformanceVector, one scalar draw per
    attribute and one reporter draw per event, in each agent's stream order.

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

    def stream(group, slot):
        return np.random.default_rng(np.random.SeedSequence(scenario.seed, spawn_key=(group, slot)))

    events, bystander_reports, consumer_reports = [], [], []
    for i, b in enumerate(scenario.bystanders):
        rng = stream(0, i)
        last = None
        for t in _probe_times(b.schedule, q):
            reported = observe(b.profile, _oracle_trust(sample(t, rng), promise), rng)
            events.append(TraceEvent(t, b.id, PROBE, reported))
            last = (t, reported)
        if last is not None:
            bystander_reports.append(InstantaneousReport(b.id, last[1], last[0]))
    for j, c in enumerate(scenario.consumers):
        rng = stream(1, j)
        acc, count = None, 0
        for t in _sample_times(c.usage, q):
            reported = observe(c.profile, _oracle_trust(sample(t, rng), promise), rng)
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
def session(schema, promise):
    return ServiceSession(
        id="s-test",
        location=(48.2, 16.37),
        start_time=0.0,
        end_time=7200.0,
        provider_id="prov",
        service_type="wifi-hotspot",
        promise=promise,
        schema=schema,
    )


def make_provider(promise, honesty_gap=0.0, jitter_rel=0.0, drift_rel=0.0):
    gens = tuple(
        AttributeGenerator(
            mean=p, jitter_stddev=jitter_rel * p, drift_per_hour=drift_rel * p
        )
        for p in promise.values
    )
    return ProviderProfile(promise=promise, attributes=gens, honesty_gap=honesty_gap)


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
