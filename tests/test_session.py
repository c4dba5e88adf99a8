"""Schema, numerization, and session checks."""

from fractions import Fraction

import numpy as np
import pytest

from mlt.session import (
    AttributeSchema,
    AttributeSpec,
    PerformanceVector,
    ServiceSession,
    is_integer,
    numerize,
    require_unit,
)

QUALITY = AttributeSpec(
    "quality", kind="ordinal", ordinal_levels=("Low", "Medium", "High")
)


class TestAttributeSpec:
    def test_continuous_defaults(self):
        spec = AttributeSpec("speed", unit="mbps")
        assert spec.kind == "continuous"
        assert spec.ordinal_levels == ()

    def test_ordinal_level_range_base_one(self):
        assert QUALITY.level_range == (1, 3)

    def test_ordinal_level_range_base_zero(self):
        spec = AttributeSpec(
            "sec", kind="ordinal", ordinal_levels=("Low", "High"), ordinal_base=0
        )
        assert spec.level_range == (0, 1)

    def test_level_range_rejects_continuous(self):
        with pytest.raises(ValueError, match="not ordinal"):
            AttributeSpec("speed").level_range

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name=""),
            dict(name="x", kind="nominal"),
            dict(name="x", kind="ordinal", ordinal_levels=("only",)),
            dict(name="x", kind="ordinal", ordinal_levels=("a", "a")),
            dict(name="x", kind="ordinal", ordinal_levels=("a", "b"), ordinal_base=-1),
            dict(name="x", ordinal_levels=("a", "b")),
            dict(name="x", ordinal_base=-3),
        ],
    )
    def test_rejects_bad_specs(self, kwargs):
        with pytest.raises(ValueError):
            AttributeSpec(**kwargs)


class TestSchema:
    def test_len(self, schema):
        assert len(schema) == 3

    def test_unique_names_required(self):
        with pytest.raises(ValueError, match="unique"):
            AttributeSchema((AttributeSpec("a"), AttributeSpec("a")))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AttributeSchema(())


class TestPerformanceVector:
    def test_length_must_match_schema(self, schema):
        with pytest.raises(ValueError, match="expected 3 values"):
            PerformanceVector((1.0, 2.0), schema)

    def test_values_coerced_to_float(self, schema):
        v = PerformanceVector((1, 2, 3), schema)
        assert v.values == (1.0, 2.0, 3.0)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), 10**400, -10**400],
                             ids=["-1.0", "nan", "inf", "huge-int", "huge-negative-int"])
    def test_rejects_non_finite_or_negative(self, schema, bad):
        with pytest.raises(ValueError):
            PerformanceVector((bad, 1.0, 1.0), schema)

    def test_ordinal_values_must_be_levels(self):
        schema = AttributeSchema((QUALITY,))
        PerformanceVector((2.0,), schema)
        with pytest.raises(ValueError, match="numerized level"):
            PerformanceVector((2.5,), schema)
        with pytest.raises(ValueError, match="numerized level"):
            PerformanceVector((4.0,), schema)


class TestNumerize:
    def test_mixed_schema(self):
        schema = AttributeSchema((AttributeSpec("speed"), QUALITY, AttributeSpec("sig")))
        v = numerize(schema, [9, "High", 80])
        assert v.values == (9.0, 3.0, 80.0)

    def test_base_zero_lowest_level_is_zero(self):
        spec = AttributeSpec(
            "sec", kind="ordinal", ordinal_levels=("Low", "Medium", "High"), ordinal_base=0
        )
        v = numerize(AttributeSchema((spec,)), ["Low"])
        assert v.values == (0.0,)

    def test_unknown_level(self):
        with pytest.raises(ValueError, match="unknown level"):
            numerize(AttributeSchema((QUALITY,)), ["Ultra"])

    def test_ordinal_requires_label(self):
        with pytest.raises(ValueError, match="ordinal label"):
            numerize(AttributeSchema((QUALITY,)), [2])

    def test_continuous_rejects_label_and_bool(self, schema):
        with pytest.raises(ValueError, match="expected a number"):
            numerize(schema, ["fast", 1, 1])
        with pytest.raises(ValueError, match="expected a number"):
            numerize(schema, [True, 1, 1])

    def test_length_mismatch(self, schema):
        with pytest.raises(ValueError, match="expected 3 entries"):
            numerize(schema, [1, 2])


class TestServiceSession:
    def test_duration(self, session):
        assert session.duration == 7200.0

    def test_zero_promise_element_rejected(self, schema):
        promise = PerformanceVector((10.0, 0.0, 80.0), schema)
        with pytest.raises(ValueError, match="ratio undefined"):
            ServiceSession(
                id="s", location=(0.0, 0.0), start_time=0.0, end_time=10.0,
                provider_id="p", service_type="t", promise=promise,
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("location", (91.0, 0.0)),
            ("location", (0.0, 181.0)),
            ("start_time", 10.0),  # equal to end_time below
            ("id", ""),
        ],
    )
    def test_rejects_bad_fields(self, promise, field, value):
        kwargs = dict(
            id="s", location=(0.0, 0.0), start_time=0.0, end_time=10.0,
            provider_id="p", service_type="t", promise=promise,
        )
        kwargs[field] = value
        with pytest.raises(ValueError):
            ServiceSession(**kwargs)


class Count(int):
    pass


@pytest.mark.parametrize(
    "value, expected",
    [(3, True), (0, True), (-2, True), (Count(3), True), (np.int64(3), True), (np.uint8(3), True),
     (True, False), (False, False), (np.bool_(True), False), (3.0, False), ("3", False),
     (Fraction(3), False), (None, False)],
    ids=repr,
)
def test_is_integer_takes_integrals_but_no_bool(value, expected):
    assert is_integer(value) is expected


def test_require_unit_formats_its_label_only_on_failure():
    require_unit("{0[missing]}", 0.5, {})  # formatting this label raises KeyError
    with pytest.raises(ValueError, match=r"^report from 'c': trust must be in \[0, 1\], got -0.5$"):
        require_unit("report from {!r}: trust", -0.5, "c")
    with pytest.raises(ValueError, match=r"^alpha must be in \[0, 1\], got nan$"):
        require_unit("alpha", float("nan"))
