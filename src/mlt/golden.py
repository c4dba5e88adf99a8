"""Built-in reference examples with hand-checked expected values.

These four small cases pin the core formulas down to concrete numbers.  They
use a WiFi hotspot promise with a deliberately 0-based ordinal security
attribute, which is exactly the configuration the 0-base opt-in exists for.
"""

from __future__ import annotations

from dataclasses import dataclass

from .session import ORDINAL, AttributeSchema, AttributeSpec, numerize
from .trust import (
    AccumulatedReport,
    InstantaneousReport,
    coverage_weights,
    credibilities,
    freshness_weights,
    instantaneous_trust,
)

GOLDEN_TOLERANCE = 0.005


@dataclass(frozen=True)
class GoldenCheck:
    name: str
    computed: tuple[float, ...]
    expected: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return len(self.computed) == len(self.expected) and all(
            abs(c - e) <= GOLDEN_TOLERANCE for c, e in zip(self.computed, self.expected)
        )


def _wifi_instantaneous() -> tuple[float, ...]:
    schema = AttributeSchema(
        (
            AttributeSpec("speed", unit="mbps"),
            AttributeSpec(
                "security", kind=ORDINAL,
                ordinal_levels=("Low", "Medium", "High"), ordinal_base=0,
            ),
            AttributeSpec("availability", unit="%"),
        )
    )
    promise = numerize(schema, [10, "Medium", 90])
    observation = numerize(schema, [9, "High", 80])
    return tuple(instantaneous_trust([observation.values], promise).tolist())


def _bystander_freshness() -> tuple[float, ...]:
    reports = [
        InstantaneousReport("b00", 1.0, 2 * 60.0),
        InstantaneousReport("b01", 1.0, 8 * 60.0),
        InstantaneousReport("b02", 1.0, 20 * 60.0),
    ]
    weights, _ = freshness_weights(reports)
    return tuple(weights)


def _consumer_coverage() -> tuple[float, ...]:
    reports = [
        AccumulatedReport("c00", 1.0, 45 * 60.0),
        AccumulatedReport("c01", 1.0, 20 * 60.0),
        AccumulatedReport("c02", 1.0, 5 * 60.0),
    ]
    return tuple(coverage_weights(reports))


def _reporter_credibility() -> tuple[float, ...]:
    return tuple(credibilities([0.9, 0.85, 1.0, 0.1]))


_CASES = (
    ("wifi-instantaneous", _wifi_instantaneous, (0.93,)),
    ("bystander-freshness", _bystander_freshness, (0.07, 0.27, 0.67)),
    ("consumer-coverage", _consumer_coverage, (0.64, 0.29, 0.07)),
    ("reporter-credibility", _reporter_credibility, (0.8125, 0.8625, 0.7125, 0.3875)),
)

GOLDEN_NAMES = tuple(name for name, _, _ in _CASES)


def run_golden_checks(perturb: str | None = None) -> list[GoldenCheck]:
    """Evaluate all reference examples.

    perturb names one check whose first computed value gets shifted by 0.01,
    a negative control proving that a drifted constant is actually caught.
    """
    if perturb is not None and perturb not in GOLDEN_NAMES:
        raise ValueError(f"unknown golden check {perturb!r}, expected one of {GOLDEN_NAMES}")
    checks = []
    for name, fn, expected in _CASES:
        computed = fn()
        if name == perturb:
            computed = (computed[0] + 0.01,) + computed[1:]
        checks.append(GoldenCheck(name, computed, expected))
    return checks
