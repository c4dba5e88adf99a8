"""Shared fixtures: a small continuous schema and a minimal runnable scenario,
plus the plain-mean aggregation oracle."""

from pathlib import Path

import pytest

from mlt.agents import AttributeGenerator, ProviderProfile, ReporterProfile
from mlt.session import AttributeSchema, AttributeSpec, PerformanceVector, ServiceSession
from mlt.simulator import Bystander, Consumer, ConsumerUsage, ProbeSchedule, Scenario
from mlt.trust import AggregationParams, NoEvidenceError

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def aggregate_basic(consumer_reports, bystander_reports) -> float:
    """Plain mean of every report's trust value, with no weighting at all."""
    values = [r.trust for r in consumer_reports] + [r.trust for r in bystander_reports]
    if not values:
        raise NoEvidenceError("no consumer or bystander reports to aggregate")
    return sum(values) / len(values)


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
