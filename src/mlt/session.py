"""Service sessions, attribute schemas, and performance vectors.

A crowdsourced IoT service (a WiFi hotspot, a shared sensor feed, ...) is
offered inside a bounded area for a bounded time window.  The provider
advertises a promise over a fixed attribute schema, and anyone observing the
service measures the same attributes, so promise and observation are directly
comparable, element by element.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

CONTINUOUS = "continuous"
ORDINAL = "ordinal"


def require_finite(**fields: float) -> None:
    """Raise ValueError naming the first field that is NaN or infinite.

    Range checks such as `x < 0` are False for NaN and so let it through;
    the model dataclasses call this before their own range checks.  An int
    past the float range fails too, where math.isfinite would overflow.
    """
    for name, value in fields.items():
        if not -sys.float_info.max <= value <= sys.float_info.max:
            raise ValueError(f"{name} must be finite, got {value}")


def require_unit(label: str, x: float, *parts) -> None:
    """Raise ValueError unless x lies in [0, 1]; NaN is outside.

    With parts, label is a str.format template for them, filled in only when
    the check fails, so a passing check never formats it.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{label.format(*parts) if parts else label} must be in [0, 1], got {x}")


def is_integer(x) -> bool:
    """True for an int or any other numbers.Integral (numpy's integers too), never a bool.

    A plain int passes on its type alone: isinstance against the abstract
    class costs about twenty times as much.
    """
    return type(x) is int or (not isinstance(x, bool) and isinstance(x, numbers.Integral))


def require_unit_array(label: str, x) -> np.ndarray:
    """require_unit for each element of x, naming the first one out of range; returns x as floats."""
    x = np.asarray(x, dtype=float)
    outside = ~((0.0 <= x) & (x <= 1.0))
    if outside.any():
        raise ValueError(f"{label} must be in [0, 1], got {x[outside].flat[0]}")
    return x


@dataclass(frozen=True)
class AttributeSpec:
    """One measurable service attribute.  Higher values are always better."""

    name: str
    kind: str = CONTINUOUS
    unit: str = ""
    ordinal_levels: tuple[str, ...] = ()
    ordinal_base: int = 1

    def __post_init__(self):
        object.__setattr__(self, "ordinal_levels", tuple(self.ordinal_levels))
        if not self.name:
            raise ValueError("attribute name must be non-empty")
        if self.kind not in (CONTINUOUS, ORDINAL):
            raise ValueError(f"attribute {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == ORDINAL:
            if len(self.ordinal_levels) < 2:
                raise ValueError(f"attribute {self.name!r}: need at least 2 ordinal levels")
            if len(set(self.ordinal_levels)) != len(self.ordinal_levels):
                raise ValueError(f"attribute {self.name!r}: duplicate ordinal levels")
            if self.ordinal_base < 0:
                raise ValueError(f"attribute {self.name!r}: ordinal_base must be >= 0")
            # ordinal_base defaults to 1 so the lowest level never numerizes to
            # zero.  Base 0 stays available as an explicit opt-in, but a promise
            # sitting on that zero level is rejected wherever it would be divided.
        elif self.ordinal_levels:
            raise ValueError(f"attribute {self.name!r}: continuous attributes take no levels")
        elif self.ordinal_base != 1:
            raise ValueError(f"attribute {self.name!r}: continuous attributes take no base")

    @property
    def level_range(self) -> tuple[int, int]:
        """Inclusive numeric range of a numerized ordinal attribute."""
        if self.kind != ORDINAL:
            raise ValueError(f"attribute {self.name!r} is not ordinal")
        return self.ordinal_base, self.ordinal_base + len(self.ordinal_levels) - 1


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered collection of attribute specs shared by promise and observations."""

    attributes: tuple[AttributeSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))
        if not self.attributes:
            raise ValueError("schema needs at least one attribute")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError("attribute names must be unique")

    def __len__(self) -> int:
        return len(self.attributes)


@dataclass(frozen=True)
class PerformanceVector:
    """Numeric attribute values conforming to a schema."""

    values: tuple[float, ...]
    schema: AttributeSchema

    def __post_init__(self):
        values = tuple(self.values)
        if len(values) != len(self.schema):
            raise ValueError(f"expected {len(self.schema)} values, got {len(values)}")
        # checked before float(), which overflows on an int past the float range
        for spec, v in zip(self.schema.attributes, values):
            if not -sys.float_info.max <= v <= sys.float_info.max:
                raise ValueError(f"attribute {spec.name!r}: value must be finite")
        object.__setattr__(self, "values", tuple(map(float, values)))
        for spec, v in zip(self.schema.attributes, self.values):
            if v < 0:
                raise ValueError(f"attribute {spec.name!r}: value must be >= 0, got {v}")
            if spec.kind == ORDINAL:
                lo, hi = spec.level_range
                if not v.is_integer() or not lo <= v <= hi:
                    raise ValueError(
                        f"attribute {spec.name!r}: {v} is not a numerized level in [{lo}, {hi}]"
                    )

    def __len__(self) -> int:
        return len(self.values)


def numerize(schema: AttributeSchema, raw: list) -> PerformanceVector:
    """Turn raw attribute readings into a numeric performance vector.

    Continuous entries pass through unchanged; ordinal entries must be level
    labels and map to their level index plus the attribute's ordinal_base.
    """
    if len(raw) != len(schema):
        raise ValueError(f"expected {len(schema)} entries, got {len(raw)}")
    values = []
    for spec, entry in zip(schema.attributes, raw):
        if spec.kind == ORDINAL:
            if not isinstance(entry, str):
                raise ValueError(
                    f"attribute {spec.name!r}: expected an ordinal label, got {entry!r}"
                )
            try:
                idx = spec.ordinal_levels.index(entry)
            except ValueError:
                raise ValueError(
                    f"attribute {spec.name!r}: unknown level {entry!r}, "
                    f"expected one of {list(spec.ordinal_levels)}"
                ) from None
            values.append(float(spec.ordinal_base + idx))
        else:
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                raise ValueError(
                    f"attribute {spec.name!r}: expected a number, got {entry!r}"
                )
            if entry < 0:
                raise ValueError(f"attribute {spec.name!r}: value must be >= 0, got {entry}")
            values.append(float(entry))
    return PerformanceVector(tuple(values), schema)


@dataclass(frozen=True)
class ServiceSession:
    """A single bounded offering of a service: where, when, and what was promised.

    Timestamps are in seconds.  start_time and end_time are absolute; report
    timestamps elsewhere in the library are offsets from start_time.
    location is input-only data: it is part of the file format and range
    checked, but trust uses the session's reports alone, so nothing reads it.
    """

    id: str
    location: tuple[float, float]  # (latitude, longitude) in degrees
    start_time: float
    end_time: float
    provider_id: str
    service_type: str
    promise: PerformanceVector  # its schema is the session's attribute schema

    def __post_init__(self):
        if not self.id:
            raise ValueError("session id must be non-empty")
        require_finite(start_time=self.start_time, end_time=self.end_time)
        lat, lon = self.location
        if not -90.0 <= lat <= 90.0 or not -180.0 <= lon <= 180.0:
            raise ValueError(f"session {self.id!r}: location {self.location} out of range")
        if not self.start_time < self.end_time:
            raise ValueError(f"session {self.id!r}: start_time must precede end_time")
        for spec, v in zip(self.promise.schema.attributes, self.promise.values):
            if v == 0:
                # A zero promise element makes the observed/promised ratio
                # undefined, so it can never be part of a valid promise.
                raise ValueError(
                    f"session {self.id!r}: promised value for {spec.name!r} is 0, "
                    "which makes the observed-to-promised ratio undefined"
                )

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

