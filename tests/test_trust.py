"""Concrete worked examples for the trust formulas.

Expected values here were computed by hand (or with a pocket calculator)
before the implementation existed; they are oracles, not snapshots.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from mlt.golden import GOLDEN_NAMES, run_golden_checks
from mlt.session import AttributeSchema, AttributeSpec, PerformanceVector
from mlt.trust import (
    AccumulatedReport,
    AggregationParams,
    InstantaneousReport,
    NoEvidenceError,
    SchemaMismatchError,
    UndefinedRatioError,
    aggregate,
    coverage_weights,
    credibilities,
    freshness_weights,
    instantaneous_trust,
    update_accumulated,
)

from conftest import aggregate_basic


class TestInstantaneous:
    def test_capped_ratio_mean(self, schema):
        # ratios: 5/10 = 0.5, 180/90 capped at 1, 45/90 = 0.5 -> mean 2/3
        promise = PerformanceVector((10.0, 90.0, 90.0), schema)
        observation = PerformanceVector((5.0, 180.0, 45.0), schema)
        assert instantaneous_trust(observation, promise) == pytest.approx(2.0 / 3.0)

    def test_exact_match_is_one(self, promise):
        assert instantaneous_trust(promise, promise) == 1.0

    def test_overdelivery_cannot_compensate(self, schema):
        promise = PerformanceVector((10.0, 10.0, 10.0), schema)
        observation = PerformanceVector((1000.0, 10.0, 0.0), schema)
        assert instantaneous_trust(observation, promise) == pytest.approx(2.0 / 3.0)

    def test_schema_mismatch(self, promise):
        other = AttributeSchema((AttributeSpec("x"),))
        observation = PerformanceVector((1.0,), other)
        with pytest.raises(SchemaMismatchError):
            instantaneous_trust(observation, promise)

    def test_zero_promise_raises(self):
        schema = AttributeSchema(
            (AttributeSpec("sec", kind="ordinal", ordinal_levels=("L", "H"), ordinal_base=0),)
        )
        promise = PerformanceVector((0.0,), schema)
        observation = PerformanceVector((1.0,), schema)
        with pytest.raises(UndefinedRatioError):
            instantaneous_trust(observation, promise)

    def test_array_rows_score_like_vectors(self, schema, promise):
        rows = [(5.0, 180.0, 45.0), (0.1, 89.9, 80.0), (10.0, 90.0, 80.0), (3.3, 0.0, 7.7)]
        got = instantaneous_trust(np.array(rows), promise)
        assert got.tolist() == [
            instantaneous_trust(PerformanceVector(row, schema), promise) for row in rows
        ]
        assert type(instantaneous_trust(promise, promise)) is float

    def test_array_with_the_wrong_width(self, promise):
        with pytest.raises(SchemaMismatchError):
            instantaneous_trust(np.ones((2, 4)), promise)


class TestAccumulated:
    def test_worked_example(self):
        # 0.7 * 0.4 + 0.3 * 0.8 = 0.52
        assert update_accumulated(0.4, 0.8, alpha=0.7) == pytest.approx(0.52)

    def test_alpha_extremes(self):
        assert update_accumulated(0.4, 0.8, alpha=1.0) == 0.4
        assert update_accumulated(0.4, 0.8, alpha=0.0) == 0.8

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            update_accumulated(1.2, 0.5)
        with pytest.raises(ValueError):
            update_accumulated(0.5, -0.1)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((math.nan, 0.5, 0.7), "previous must be in [0, 1], got nan"),
            ((0.5, math.nan, 0.7), "instantaneous must be in [0, 1], got nan"),
            ((0.5, 0.5, math.nan), "alpha must be in [0, 1], got nan"),
            ((1.5, math.nan, math.nan), "previous must be in [0, 1], got 1.5"),
            ((0.5, 2.0, -1.0), "instantaneous must be in [0, 1], got 2.0"),
            ((0.5, 0.5, 1.0000001), "alpha must be in [0, 1], got 1.0000001"),
        ],
    )
    def test_names_the_first_input_out_of_range(self, args, message):
        with pytest.raises(ValueError) as err:
            update_accumulated(*args)
        assert str(err.value) == message

    def test_arrays_fold_elementwise_like_scalars(self):
        previous = np.array([[0.0, 0.4], [1.0, 0.25]])
        instantaneous = np.array([[1.0, 0.8], [0.0, 0.6]])
        folded = update_accumulated(previous, instantaneous, 0.7)
        expected = [[update_accumulated(p, i, 0.7) for p, i in zip(*rows)]
                    for rows in zip(previous.tolist(), instantaneous.tolist())]
        assert folded.tolist() == expected

    @pytest.mark.parametrize(
        "args, message",
        [
            ((np.array([0.5, math.nan]), 0.5, 0.7), "previous must be in [0, 1], got nan"),
            ((np.array([0.5, 1.5]), 0.5, 0.7), "previous must be in [0, 1], got 1.5"),
            ((0.5, np.array([math.nan, 0.5]), 0.7), "instantaneous must be in [0, 1], got nan"),
            ((0.5, np.array([0.5, -0.25]), 0.7), "instantaneous must be in [0, 1], got -0.25"),
            ((np.array([0.5]), 0.5, np.array([0.7, math.nan])), "alpha must be in [0, 1], got nan"),
            ((np.array([0.5]), 0.5, np.array([2.0])), "alpha must be in [0, 1], got 2.0"),
            ((np.array([0.5, 0.5]), np.array([0.5, 3.0]), math.nan),
             "instantaneous must be in [0, 1], got 3.0"),
            ((np.array([0.5]), 0.5, math.nan), "alpha must be in [0, 1], got nan"),
        ],
        ids=["previous-nan", "previous-above", "instantaneous-nan", "instantaneous-below",
             "alpha-nan", "alpha-above", "first-bad-input-named", "scalar-alpha-nan"],
    )
    def test_arrays_are_held_to_the_same_bounds(self, args, message):
        with pytest.raises(ValueError) as err:
            update_accumulated(*args)
        assert str(err.value) == message


class TestReports:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: InstantaneousReport("", 0.5, 60.0),
            lambda: InstantaneousReport("b", 1.5, 60.0),
            lambda: InstantaneousReport("b", 0.5, -1.0),
            lambda: InstantaneousReport("b", 0.5, math.inf),
            lambda: InstantaneousReport("b", 0.5, math.nan),
            lambda: AccumulatedReport("c", 0.5, 0.0),
            lambda: AccumulatedReport("c", math.nan, 60.0),
            lambda: AccumulatedReport("c", 0.5, math.nan),
            lambda: AccumulatedReport("c", 0.5, math.inf),
            lambda: AccumulatedReport("c", 0.5, 60.0, update_count=0),
        ],
    )
    def test_rejects_invalid_fields(self, make):
        # a non-finite offset or coverage would make aggregate() return nan
        with pytest.raises(ValueError):
            make()

    def test_update_count_must_be_an_integer(self):
        for count in (2.5, True):
            with pytest.raises(ValueError, match="update_count must be an integer"):
                AccumulatedReport("c", 0.5, 60.0, update_count=count)


class TestWeights:
    def test_freshness_minutes_example(self):
        reports = [
            InstantaneousReport("a", 0.5, 2 * 60.0),
            InstantaneousReport("b", 0.5, 8 * 60.0),
            InstantaneousReport("c", 0.5, 20 * 60.0),
        ]
        weights, degenerate = freshness_weights(reports)
        assert weights == pytest.approx([1 / 15, 4 / 15, 10 / 15])
        assert not degenerate

    def test_freshness_all_zero_falls_back_uniform(self):
        reports = [InstantaneousReport("a", 0.5, 0.0), InstantaneousReport("b", 0.5, 0.0)]
        weights, degenerate = freshness_weights(reports)
        assert weights == [0.5, 0.5]
        assert degenerate

    def test_coverage_minutes_example(self):
        reports = [
            AccumulatedReport("a", 0.5, 45 * 60.0),
            AccumulatedReport("b", 0.5, 20 * 60.0),
            AccumulatedReport("c", 0.5, 5 * 60.0),
        ]
        assert coverage_weights(reports) == pytest.approx([45 / 70, 20 / 70, 5 / 70])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            freshness_weights([])
        with pytest.raises(ValueError):
            coverage_weights([])

    def test_sums_past_the_float_range(self):
        # 1e308 + 1e308 is +inf; dividing by it would make every weight 0.0
        huge = [InstantaneousReport("b1", 0.9, 1e308), InstantaneousReport("b2", 0.8, 1e308)]
        unit_offsets = [replace(r, timestamp_offset=1.0) for r in huge]
        assert freshness_weights(huge) == ([0.5, 0.5], False)
        consumers = [AccumulatedReport("c1", 0.7, 1e308), AccumulatedReport("c2", 0.6, 1.7e308)]
        assert coverage_weights(consumers) == pytest.approx([1 / 2.7, 1.7 / 2.7])
        for mode in ("verbatim", "normalized"):
            got = aggregate([], huge, AggregationParams(mode=mode))
            want = aggregate([], unit_offsets, AggregationParams(mode=mode))
            assert (got.overall, got.per_reporter) == (want.overall, want.per_reporter)


class TestCredibility:
    def test_worked_example(self):
        # pool mean 0.7125; distances 0.1875, 0.1375, 0.2875, 0.6125
        assert credibilities([0.9, 0.85, 1.0, 0.1]) == pytest.approx(
            [0.8125, 0.8625, 0.7125, 0.3875]
        )

    def test_single_value_fully_credible(self):
        assert credibilities([0.42]) == [1.0]

    @pytest.mark.parametrize(
        "values, named",
        [([math.nan, 0.5], "nan"), ([0.5, math.nan], "nan"), ([0.2, math.nan, 0.9], "nan"),
         ([0.5, -0.5, 2.0], "-0.5")],
    )
    def test_first_bad_value_is_named(self, values, named):
        # min() and max() skip a NaN that is not first, so the range check cannot rely on them
        with pytest.raises(ValueError) as exc:
            credibilities(values)
        assert str(exc.value) == f"trust value must be in [0, 1], got {named}"


class TestAggregate:
    def build_reports(self):
        consumers = [
            AccumulatedReport("c00", 0.8, 2700.0),
            AccumulatedReport("c01", 0.6, 900.0),
        ]
        bystanders = [
            InstantaneousReport("b00", 0.7, 600.0),
            InstantaneousReport("b01", 0.5, 1800.0),
        ]
        return consumers, bystanders

    def test_verbatim_worked_example(self):
        # pool mean 0.65; creds [0.85, 0.95, 0.95, 0.85]
        # consumer term 0.85*0.75*0.8 + 0.95*0.25*0.6 = 0.6525
        # bystander term 0.95*0.25*0.7 + 0.85*0.75*0.5 = 0.485
        # blend at beta 0.5 -> 0.56875
        consumers, bystanders = self.build_reports()
        out = aggregate(consumers, bystanders, AggregationParams(beta=0.5, mode="verbatim"))
        assert out.consumer_term == pytest.approx(0.6525)
        assert out.bystander_term == pytest.approx(0.485)
        assert out.overall == pytest.approx(0.56875)

    def test_normalized_worked_example(self):
        # same terms divided by their weight mass (0.875 each) -> blend 0.65
        consumers, bystanders = self.build_reports()
        out = aggregate(consumers, bystanders, AggregationParams(beta=0.5, mode="normalized"))
        assert out.overall == pytest.approx(0.65)

    def test_bystander_only_single_report(self):
        out = aggregate([], [InstantaneousReport("b00", 0.7, 300.0)], AggregationParams())
        assert out.overall == pytest.approx(0.7)
        assert out.consumer_term == 0.0

    def test_consumer_only_skips_beta(self):
        consumers = [AccumulatedReport("c00", 0.4, 600.0)]
        for beta in (0.0, 0.5, 1.0):
            out = aggregate(consumers, [], AggregationParams(beta=beta))
            assert out.overall == pytest.approx(0.4)

    def test_per_reporter_order_consumers_first(self):
        consumers, bystanders = self.build_reports()
        out = aggregate(consumers, bystanders)
        assert [t.reporter_id for t in out.per_reporter] == ["c00", "c01", "b00", "b01"]

    def test_per_reporter_is_built_on_first_read(self):
        consumers, bystanders = self.build_reports()
        out = aggregate(consumers, bystanders)
        assert "per_reporter" not in vars(out)
        terms = out.per_reporter
        assert vars(out)["per_reporter"] is terms
        assert [(t.trust, t.weight) for t in terms] == [
            (0.8, 0.75), (0.6, 0.25), (0.7, 0.25), (0.5, 0.75)
        ]

    def test_breakdown_is_a_hashable_value_over_its_terms(self):
        consumers, bystanders = self.build_reports()
        out = aggregate(consumers, bystanders)
        assert out == aggregate(tuple(consumers), tuple(bystanders))
        assert hash(out) == hash(aggregate(consumers, bystanders))
        renamed = [replace(bystanders[0], reporter_id="b99"), bystanders[1]]
        other = aggregate(consumers, renamed)
        assert other.overall == out.overall
        assert other != out

    def test_credibility_off_sets_all_to_one(self):
        consumers, bystanders = self.build_reports()
        out = aggregate(consumers, bystanders, use_credibility=False)
        assert all(t.credibility == 1.0 for t in out.per_reporter)

    def test_no_reports_raises(self):
        with pytest.raises(NoEvidenceError):
            aggregate([], [])
        with pytest.raises(NoEvidenceError):
            aggregate_basic([], [])

    def test_basic_is_plain_mean(self):
        consumers, bystanders = self.build_reports()
        assert aggregate_basic(consumers, bystanders) == pytest.approx(0.65)


class TestGoldenExamples:
    def test_all_reference_checks_pass(self):
        checks = run_golden_checks()
        assert [c.name for c in checks] == list(GOLDEN_NAMES)
        for check in checks:
            assert check.passed, f"{check.name}: {check.computed} vs {check.expected}"

    def test_wifi_example_value(self):
        # (0.9 + 1 + 8/9) / 3, with the ordinal High/Medium ratio capping at 1
        check = run_golden_checks()[0]
        assert check.computed[0] == pytest.approx((0.9 + 1.0 + 8.0 / 9.0) / 3.0)

    def test_perturb_is_detected(self):
        perturbed = {c.name: c for c in run_golden_checks(perturb="consumer-coverage")}
        assert not perturbed["consumer-coverage"].passed
        assert perturbed["wifi-instantaneous"].passed

    def test_perturb_unknown_name(self):
        with pytest.raises(ValueError, match="unknown golden check"):
            run_golden_checks(perturb="nope")
