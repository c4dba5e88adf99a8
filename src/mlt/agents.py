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

from dataclasses import dataclass

import numpy as np

from .session import (ORDINAL, AttributeSchema, is_integer, require_finite, require_unit,
                      require_unit_array)

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
    """How the service really performs: a generator per attribute of the session's schema."""

    attributes: tuple[AttributeGenerator, ...]
    honesty_gap: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))
        require_unit("honesty_gap", self.honesty_gap)


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
        if not is_integer(self.count):
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
    lo, hi = np.array(ranges, dtype=float).T  # a base past int64 stays a number
    latent[..., ordinal] = np.floor(latent[..., ordinal] + 0.5)
    return np.minimum(hi, np.maximum(lo, latent, out=latent), out=latent)


def sample_true_performance(profile: ProviderProfile, schema: AttributeSchema, gaps,
                            offsets, noise) -> np.ndarray:
    """The service's actual performance at session offsets (seconds), one row
    per event, for each honesty gap: an array of (gap x event x attribute).

    Each attribute is mean * (1 - gap), plus drift scaled by the elapsed
    hours, plus jitter, clamped to its range in schema; profile gives every
    field but the gap, one generator per attribute of schema.  noise holds
    standard normal draws, (gap x event x attribute) or one (event x
    attribute) array for every gap, and an attribute's jitter is its draw
    times its jitter_stddev.  The simulator draws one value per attribute per
    event regardless of the jitter setting, so streams stay aligned across
    configurations.  A gap outside [0, 1] or NaN, or a generator count other
    than len(schema), raises ValueError.
    """
    if len(profile.attributes) != len(schema):
        raise ValueError(f"expected {len(schema)} attribute generators, got {len(profile.attributes)}")
    gaps = require_unit_array("honesty_gap", gaps)
    means, drift, stddev = zip(*((gen.mean, gen.drift_per_hour, gen.jitter_stddev)
                                 for gen in profile.attributes))
    base = np.multiply.outer(1.0 - gaps, means)[:, np.newaxis, :]
    hours = np.asarray(offsets, dtype=float) / SECONDS_PER_HOUR
    with np.errstate(over="ignore", invalid="ignore"):
        latent = base + np.multiply.outer(hours, drift)
        noise = np.asarray(noise, dtype=float)
        for a, s in enumerate(stddev):  # a column at a time: no full-size temporary
            latent[..., a] += noise[..., a] * s
    return _clamp(schema, latent)


def noise_free_performance(profile: ProviderProfile, schema: AttributeSchema, gaps) -> np.ndarray:
    """The provider's stationary mean performance on schema at each honesty
    gap, (gap x attribute): no jitter and, at offset 0, no drift.

    This is the reference the simulator scores against; drift and jitter are
    treated as departures from it.
    """
    return sample_true_performance(profile, schema, gaps, [0.0], np.zeros((1, len(schema))))[:, 0]


def observe(profile: ReporterProfile, true_trust, own_draws=None) -> np.ndarray:
    """Filter true instantaneous trust values through a reporter's behaviour.

    true_trust is an array of values in [0, 1].  A malicious random reporter
    reports own_draws instead: its own uniform draws on [0, 1), one per value,
    which the simulator takes from the reporter's stream.
    """
    true_trust = require_unit_array("true_trust", true_trust)
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
