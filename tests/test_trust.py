"""Concrete worked examples for the trust formulas.

Expected values here were computed by hand (or with a pocket calculator)
before the implementation existed; they are oracles, not snapshots.
"""

import copy
import math
import pickle
import re
import weakref
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from mlt.golden import GOLDEN_NAMES, run_golden_checks
from mlt.session import AttributeSchema, AttributeSpec, PerformanceVector
from mlt.trust import (
    AccumulatedReport,
    AggregationParams,
    InstantaneousReport,
    NoEvidenceError,
    ReporterTerm,
    SchemaMismatchError,
    UndefinedRatioError,
    _sum_left,
    aggregate,
    coverage_weights,
    credibilities,
    freshness_weights,
    instantaneous_trust,
    left_sum,
    update_accumulated,
)

from conftest import aggregate_basic


class TestInstantaneous:
    def test_capped_ratio_mean(self, schema):
        # ratios: 5/10 = 0.5, 180/90 capped at 1, 45/90 = 0.5 -> mean 2/3
        promise = PerformanceVector((10.0, 90.0, 90.0), schema)
        assert instantaneous_trust([[5.0, 180.0, 45.0]], promise)[0] == pytest.approx(2.0 / 3.0)

    def test_exact_match_is_one(self, promise):
        assert instantaneous_trust([promise.values], promise).tolist() == [1.0]

    def test_overdelivery_cannot_compensate(self, schema):
        promise = PerformanceVector((10.0, 10.0, 10.0), schema)
        assert instantaneous_trust([[1000.0, 10.0, 0.0]], promise)[0] == pytest.approx(2.0 / 3.0)

    @pytest.mark.parametrize("bad", [-5.0, -1e300, math.nan, math.inf])
    def test_an_observed_value_not_finite_or_negative_raises(self, promise, bad):
        rows = np.array([[10.0, 90.0, 90.0], [5.0, bad, 90.0]])
        with pytest.raises(ValueError, match=re.escape(f"must be finite and >= 0, got {bad}")):
            instantaneous_trust(rows, promise)

    def test_zero_promise_raises(self):
        schema = AttributeSchema(
            (AttributeSpec("sec", kind="ordinal", ordinal_levels=("L", "H"), ordinal_base=0),)
        )
        promise = PerformanceVector((0.0,), schema)
        with pytest.raises(UndefinedRatioError):
            instantaneous_trust([[1.0]], promise)

    def test_array_rows_score_like_vectors(self, promise):
        rows = [(5.0, 180.0, 45.0), (0.1, 89.9, 80.0), (10.0, 90.0, 80.0), (3.3, 0.0, 7.7)]
        got = instantaneous_trust(np.array(rows), promise)
        assert got.tolist() == [instantaneous_trust([row], promise)[0] for row in rows]

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


class Count(int):
    """An int subclass, which is a numbers.Integral but not of type int."""


class Tripwire(str):
    """A reporter id whose repr raises while armed."""

    armed = True

    def __repr__(self):
        if self.armed:
            raise LookupError("the id was formatted")
        return str.__repr__(self)


class TestReports:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: InstantaneousReport("", 0.5, 60.0),
            lambda: InstantaneousReport("b", 1.5, 60.0),
            lambda: InstantaneousReport("b", 0.5, -1.0),
            lambda: InstantaneousReport("b", 0.5, math.inf),
            lambda: InstantaneousReport("b", 0.5, math.nan),
            lambda: InstantaneousReport("b", 0.5, 10**400),
            lambda: AccumulatedReport("c", 0.5, 0.0),
            lambda: AccumulatedReport("c", math.nan, 60.0),
            lambda: AccumulatedReport("c", 0.5, math.nan),
            lambda: AccumulatedReport("c", 0.5, math.inf),
            lambda: AccumulatedReport("c", 0.5, 10**400),
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

    @pytest.mark.parametrize("count", [np.int64(3), np.uint8(3), Count(3), 3])
    def test_update_count_takes_any_integral(self, count):
        report = AccumulatedReport("c", 0.5, 60.0, count)
        assert report.update_count is count

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: AccumulatedReport("c", 0.5, 60.0, True),
             "report from 'c': update_count must be an integer >= 1, got True"),
            (lambda: AccumulatedReport("c", 0.5, 60.0, 1.0),
             "report from 'c': update_count must be an integer >= 1, got 1.0"),
            (lambda: AccumulatedReport("c", 0.5, 60.0, "3"),
             "report from 'c': update_count must be an integer >= 1, got '3'"),
            (lambda: AccumulatedReport("c", 0.5, 60.0, 0),
             "report from 'c': update_count must be an integer >= 1, got 0"),
            (lambda: AccumulatedReport("c", 0.5, 60.0, Count(0)),
             "report from 'c': update_count must be an integer >= 1, got 0"),
            (lambda: AccumulatedReport("", 0.5, 1.0), "reporter_id must be non-empty"),
            # an int past the float range is refused, not overflowed
            (lambda: InstantaneousReport("b", 0.5, 10**400),
             "report from 'b': timestamp_offset must be finite and >= 0"),
            (lambda: AccumulatedReport("c", 0.5, 10**400),
             "report from 'c': coverage_duration must be finite and positive"),
            *[
                (lambda cls=cls, trust=trust: cls("c", trust, 60.0),
                 f"report from 'c': trust must be in [0, 1], got {shown}")
                for cls in (AccumulatedReport, InstantaneousReport)
                for trust, shown in ((math.nan, "nan"), (-0.1, "-0.1"), (1.1, "1.1"),
                                     (math.inf, "inf"))
            ],
        ],
    )
    def test_rejections_name_the_field_and_the_value(self, make, message):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message

    def test_the_trust_label_is_formatted_only_on_failure(self):
        reporter_id = Tripwire("c")
        for report in (InstantaneousReport(reporter_id, 0.5, 60.0),
                       AccumulatedReport(reporter_id, 0.5, 60.0, 2)):
            assert report.reporter_id is reporter_id
            assert report == replace(report)
        with pytest.raises(LookupError):
            InstantaneousReport(reporter_id, 1.5, 60.0)
        reporter_id.armed = False
        for cls in (InstantaneousReport, AccumulatedReport):
            with pytest.raises(ValueError) as err:
                cls(reporter_id, 1.5, 60.0)
            assert str(err.value) == "report from 'c': trust must be in [0, 1], got 1.5"


SLOTTED = [
    InstantaneousReport("b", 0.25, 30.0),
    AccumulatedReport("c", 0.75, 60.0, 4),
    AccumulatedReport("c", 0.75, 60.0, np.int64(4)),
    ReporterTerm("c", 0.75, 0.5, 0.9),
]


class TestSlottedValues:
    @pytest.mark.parametrize("value", SLOTTED, ids=repr)
    def test_no_instance_dict_no_weakref_no_new_attributes(self, value):
        assert not hasattr(value, "__dict__")
        assert type(value).__slots__ == tuple(f.name for f in fields(value))
        with pytest.raises(TypeError):
            weakref.ref(value)
        # the same refusals as a frozen dataclass without slots
        with pytest.raises(FrozenInstanceError, match="^cannot assign to field 'note'$"):
            value.note = "ad hoc"
        with pytest.raises(FrozenInstanceError, match="^cannot assign to field 'trust'$"):
            value.trust = 0.5
        with pytest.raises(FrozenInstanceError, match="^cannot delete field 'note'$"):
            del value.note
        with pytest.raises(FrozenInstanceError, match="^cannot delete field 'trust'$"):
            del value.trust

    @pytest.mark.parametrize("value", SLOTTED, ids=repr)
    def test_copies_are_equal_values(self, value):
        for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                       copy.deepcopy(value), replace(value)):
            assert copied == value
            assert hash(copied) == hash(value)
            assert repr(copied) == repr(value)
            assert type(copied) is type(value)
        assert value != replace(value, trust=0.5)

    def test_equality_and_hash_cover_every_field(self):
        report = AccumulatedReport("c", 0.75, 60.0, 4)
        assert report == AccumulatedReport("c", 0.75, 60.0, np.int64(4))
        assert hash(report) == hash(("c", 0.75, 60.0, 4))
        assert report != AccumulatedReport("c", 0.75, 60.0, 5)
        # same fields, other class
        assert InstantaneousReport("c", 0.75, 60.0) != AccumulatedReport("c", 0.75, 60.0, 1)
        assert repr(report) == (
            "AccumulatedReport(reporter_id='c', trust=0.75, coverage_duration=60.0, update_count=4)"
        )

    def test_replace_checks_the_new_fields(self):
        with pytest.raises(ValueError, match=r"^report from 'c': trust must be in \[0, 1\], got 2.0$"):
            replace(SLOTTED[1], trust=2.0)
        with pytest.raises(ValueError, match="update_count must be an integer"):
            replace(SLOTTED[1], update_count=True)


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


class TestSums:
    def test_sums_add_left_to_right_without_compensation(self):
        # math.fsum, and sum() from Python 3.12, compensate the rounding and give 2.0
        values = [1.0, 1e100, 1.0, -1e100]
        assert math.fsum(values) == 2.0
        assert left_sum(values) == _sum_left(values) == 0.0

    def test_a_weight_is_its_value_over_the_left_to_right_total(self):
        # ten 0.1s add up to 0.9999999999999999 left to right, to 1.0 compensated
        reports = [AccumulatedReport(f"c{i}", 0.5, 0.1) for i in range(10)]
        assert coverage_weights(reports) == [0.1 / 0.9999999999999999] * 10
        assert coverage_weights(reports)[0] != 0.1

    def test_rows_of_arrays_add_elementwise(self):
        rows = np.array([[0.1] * 10, [1.0, 1e100, 1.0, -1e100] + [0.0] * 6]).T
        assert _sum_left(rows).tolist() == [0.9999999999999999, 0.0]


class TestCredibility:
    def test_worked_example(self):
        # pool mean 0.7125; distances 0.1875, 0.1375, 0.2875, 0.6125
        assert credibilities([0.9, 0.85, 1.0, 0.1]) == pytest.approx(
            [0.8125, 0.8625, 0.7125, 0.3875]
        )

    def test_single_value_fully_credible(self):
        assert credibilities([0.42]) == [1.0]

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            credibilities([])

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
