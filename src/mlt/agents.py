"""Simulated providers and reporters.

A provider profile describes how a service actually performs: a per-attribute
mean, gaussian jitter, and a linear drift over the session.  honesty_gap is
the fraction by which the advertised promise overstates the true mean, so a
gap of 0.1 with mean equal to the promise yields observations around 90% of
what was promised.

Reporter profiles describe how an observed trust value is turned into a
reported one: honest reporters pass it through, biased reporters add a fixed
offset (clamped to [0, 1]), and malicious reporters either report a uniform
random value or invert the truth.

Everything here works on arrays, one row or value per event, and draws
nothing: the simulator lays out every random stream and hands in the draws.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

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

    @property
    def draws_reports(self) -> bool:
        """True when the reporter draws its reports from its own stream (malicious random)."""
        return self.malicious_strategy == RANDOM


@dataclass(frozen=True)
class ProbeSchedule:
    """When a bystander probes: first_offset, then every interval, count times."""

    first_offset: float
    interval: float
    count: int

    def __post_init__(self):
        require_finite(first_offset=self.first_offset, interval=self.interval, count=self.count)
        if isinstance(self.count, bool) or not isinstance(self.count, numbers.Integral):
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


def _clamp(schema, latent: np.ndarray) -> np.ndarray:
    """Clamp latent values (one column per attribute) into each attribute's
    range, in place.

    An ordinal attribute rounds half away from the bottom, so the latent maps
    to the nearest level, and is clipped to its level range; a continuous one
    is floored at 0.  A non-finite latent raises ValueError before any
    rounding, so an overflow is never rounded or clamped into range.
    """
    finite = np.isfinite(latent)
    if not finite.all():
        where = tuple(np.argwhere(~finite)[0])
        spec = schema.attributes[where[-1]]
        raise ValueError(f"attribute {spec.name!r}: sampled value {latent[where]} is not finite")
    ordinal = [spec.kind == ORDINAL for spec in schema.attributes]
    ranges = [spec.level_range if spec.kind == ORDINAL else (0.0, np.inf)
              for spec in schema.attributes]
    lo, hi = np.array(ranges).T
    latent[..., ordinal] = np.floor(latent[..., ordinal] + 0.5)
    return np.minimum(hi, np.maximum(lo, latent, out=latent), out=latent)


def sample_true_performance(profile, offsets, noise) -> np.ndarray:
    """The service's actual performance at session offsets (seconds), one row each.

    Each attribute is mean * (1 - honesty_gap), plus drift scaled by the
    elapsed hours, plus jitter, clamped to the attribute's valid range.
    noise is an (events x attributes) array of standard normal draws, and an
    attribute's jitter is its draw times its jitter_stddev.  The simulator
    draws one value per attribute per event regardless of the jitter setting,
    so streams stay aligned across configurations.

    profile may also be a sequence of profiles of one provider that differ
    only in honesty_gap, one per replication: noise and the result then have
    a leading replication axis.
    """
    single = isinstance(profile, ProviderProfile)
    profiles = (profile,) if single else tuple(profile)
    first, *others = profiles
    gens = first.attributes
    if any(p.attributes != gens or p.promise != first.promise for p in others):
        raise ValueError("the profiles of one sample must differ only in honesty_gap")
    base = np.array([[gen.mean * (1.0 - p.honesty_gap) for gen in gens]
                     for p in profiles])[:, np.newaxis, :]
    noise = np.asarray(noise, dtype=float)
    hours = np.asarray(offsets, dtype=float) / SECONDS_PER_HOUR
    drift = [gen.drift_per_hour for gen in gens]
    stddev = [gen.jitter_stddev for gen in gens]
    with np.errstate(over="ignore", invalid="ignore"):
        latent = base + np.multiply.outer(hours, drift)
        latent += (noise[np.newaxis] if single else noise) * stddev
    latent = _clamp(first.promise.schema, latent)
    return latent[0] if single else latent


def noise_free_performance(profile: ProviderProfile) -> PerformanceVector:
    """The provider's stationary mean performance: no jitter, no drift.

    This is the reference the simulator scores against; drift and jitter are
    treated as departures from it.
    """
    schema = profile.promise.schema
    base = np.array([gen.mean * (1.0 - profile.honesty_gap) for gen in profile.attributes])
    return PerformanceVector(tuple(_clamp(schema, base).tolist()), schema)


def observe(profile: ReporterProfile, true_trust, own_draws=None) -> np.ndarray:
    """Filter true instantaneous trust values through a reporter's behaviour.

    true_trust is an array of values in [0, 1].  A malicious random reporter
    reports own_draws instead: its own uniform draws on [0, 1), one per value,
    which the simulator takes from the reporter's stream.
    """
    true_trust = np.asarray(true_trust, dtype=float)
    if true_trust.size and not (0.0 <= true_trust.min() and true_trust.max() <= 1.0):
        raise ValueError(f"true_trust must be in [0, 1], got {true_trust}")
    if profile.kind == HONEST:
        return true_trust
    if profile.kind == BIASED:
        return np.minimum(1.0, np.maximum(0.0, true_trust + profile.bias_offset))
    if profile.draws_reports:
        own_draws = np.asarray(own_draws, dtype=float)
        if own_draws.shape != true_trust.shape:
            raise ValueError("a random reporter needs one own draw per trust value")
        return own_draws
    return 1.0 - true_trust
