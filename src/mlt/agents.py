"""Simulated providers and reporters.

A provider profile describes how a service actually performs: a per-attribute
mean, gaussian jitter, and a linear drift over the session.  honesty_gap is
the fraction by which the advertised promise overstates the true mean, so a
gap of 0.1 with mean equal to the promise yields observations around 90% of
what was promised.

Reporter profiles describe how an observed trust value is turned into a
reported one: honest reporters pass it through, biased reporters add a fixed
offset (clamped to [0, 1]), and malicious reporters either draw a uniform
random value or invert the truth.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .session import ORDINAL, PerformanceVector, require_finite

HONEST = "honest"
BIASED = "biased"
MALICIOUS = "malicious"

RANDOM = "random"
INVERTED = "inverted"

SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class AttributeGenerator:
    """True-performance generator for one attribute."""

    mean: float
    jitter_stddev: float = 0.0
    drift_per_hour: float = 0.0

    def __post_init__(self):
        require_finite(mean=self.mean, jitter_stddev=self.jitter_stddev,
                       drift_per_hour=self.drift_per_hour)
        if self.mean < 0:
            raise ValueError(f"mean must be >= 0, got {self.mean}")
        if self.jitter_stddev < 0:
            raise ValueError(f"jitter_stddev must be >= 0, got {self.jitter_stddev}")


@dataclass(frozen=True)
class ProviderProfile:
    """Advertised promise plus the generator of what the service really does."""

    promise: PerformanceVector
    attributes: tuple[AttributeGenerator, ...]
    honesty_gap: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))
        if len(self.attributes) != len(self.promise.schema):
            raise ValueError(
                f"expected {len(self.promise.schema)} attribute generators, "
                f"got {len(self.attributes)}"
            )
        if not 0.0 <= self.honesty_gap <= 1.0:
            raise ValueError(f"honesty_gap must be in [0, 1], got {self.honesty_gap}")


@dataclass(frozen=True)
class ReporterProfile:
    """How a reporter distorts (or does not distort) what it observed."""

    kind: str = HONEST
    bias_offset: float = 0.0
    malicious_strategy: str | None = None

    def __post_init__(self):
        if self.kind not in (HONEST, BIASED, MALICIOUS):
            raise ValueError(f"unknown reporter kind {self.kind!r}")
        if self.kind == BIASED:
            if not -1.0 <= self.bias_offset <= 1.0:
                raise ValueError(f"bias_offset must be in [-1, 1], got {self.bias_offset}")
            if self.malicious_strategy is not None:
                raise ValueError("biased reporters take no malicious_strategy")
        elif self.kind == MALICIOUS:
            if self.malicious_strategy not in (RANDOM, INVERTED):
                raise ValueError(
                    f"malicious reporters need a strategy of {RANDOM!r} or {INVERTED!r}"
                )
            if self.bias_offset != 0.0:
                raise ValueError("malicious reporters take no bias_offset")
        else:
            if self.bias_offset != 0.0 or self.malicious_strategy is not None:
                raise ValueError("honest reporters take no bias_offset or malicious_strategy")


@dataclass(frozen=True)
class ProbeSchedule:
    """When a bystander probes: first_offset, then every interval, count times."""

    first_offset: float
    interval: float
    count: int

    def __post_init__(self):
        require_finite(first_offset=self.first_offset, interval=self.interval, count=self.count)
        if not isinstance(self.count, numbers.Integral):
            raise ValueError(f"count must be an integer, got {self.count!r}")
        if self.first_offset <= 0:
            raise ValueError(f"first_offset must be positive, got {self.first_offset}")
        if self.interval <= 0:
            raise ValueError(f"interval must be positive, got {self.interval}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")

    @property
    def last_offset(self) -> float:
        return self.first_offset + (self.count - 1) * self.interval


def _clamp_to_schema(spec, latent: float) -> float:
    """Clamp a continuous latent value into the attribute's valid range."""
    if spec.kind == ORDINAL:
        lo, hi = spec.level_range
        # round half away from the bottom so the latent maps to the nearest level
        level = math.floor(latent + 0.5)
        return float(min(hi, max(lo, level)))
    return max(0.0, float(latent))


def sample_true_performance(profile: ProviderProfile, offset: float, rng) -> PerformanceVector:
    """Draw the service's actual performance at a session offset (seconds).

    Each attribute is mean * (1 - honesty_gap), plus drift scaled by the
    elapsed hours, plus one gaussian jitter draw, clamped to the attribute's
    valid range.  Exactly one draw is consumed per attribute regardless of
    the jitter setting, so streams stay aligned across configurations.
    """
    schema = profile.promise.schema
    hours = offset / SECONDS_PER_HOUR
    values = []
    for spec, gen in zip(schema.attributes, profile.attributes):
        latent = gen.mean * (1.0 - profile.honesty_gap) + gen.drift_per_hour * hours
        latent += rng.normal(0.0, gen.jitter_stddev)
        values.append(_clamp_to_schema(spec, latent))
    return PerformanceVector(tuple(values), schema)


def noise_free_performance(profile: ProviderProfile) -> PerformanceVector:
    """The provider's stationary mean performance: no jitter, no drift.

    This is the reference the simulator scores against; drift and jitter are
    treated as departures from it.
    """
    schema = profile.promise.schema
    values = [
        _clamp_to_schema(spec, gen.mean * (1.0 - profile.honesty_gap))
        for spec, gen in zip(schema.attributes, profile.attributes)
    ]
    return PerformanceVector(tuple(values), schema)


def observe(profile: ReporterProfile, true_trust: float, rng) -> float:
    """Filter a true instantaneous trust value through a reporter's behaviour."""
    if not 0.0 <= true_trust <= 1.0:
        raise ValueError(f"true_trust must be in [0, 1], got {true_trust}")
    if profile.kind == HONEST:
        return true_trust
    if profile.kind == BIASED:
        return min(1.0, max(0.0, true_trust + profile.bias_offset))
    if profile.malicious_strategy == RANDOM:
        return float(rng.uniform(0.0, 1.0))
    return 1.0 - true_trust
