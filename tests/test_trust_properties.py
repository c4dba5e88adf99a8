"""Property-based checks for the trust math.

Strategies build small random report pools; the properties assert range,
normalization, monotonicity, and equivalence facts that hold for any input.
"""

import copy
import importlib.util
import math
import pickle
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlt.evaluation import TrustLevel, classify
from mlt.session import AttributeSchema, AttributeSpec, PerformanceVector
from mlt.trust import (
    NORMALIZED,
    VERBATIM,
    _ARRAY_MIN,
    AccumulatedReport,
    AggregationParams,
    InstantaneousReport,
    NoEvidenceError,
    TrustBreakdown,
    aggregate,
    aggregate_overall,
    coverage_weights,
    credibilities,
    freshness_weights,
    instantaneous_trust,
    update_accumulated,
)

from conftest import aggregate_basic, aggregate_oracle

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
positive = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)


def _schema(n):
    return AttributeSchema(tuple(AttributeSpec(f"a{i}") for i in range(n)))


@st.composite
def observation_promise(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    schema = _schema(n)
    promised = draw(st.lists(positive, min_size=n, max_size=n))
    observed = draw(
        st.lists(st.floats(min_value=0.0, max_value=2e6, allow_nan=False), min_size=n, max_size=n)
    )
    return PerformanceVector(tuple(observed), schema), PerformanceVector(tuple(promised), schema)


@st.composite
def report_pool(draw, max_each=5, min_total=1):
    n_c = draw(st.integers(min_value=0, max_value=max_each))
    n_b = draw(st.integers(min_value=max(0, min_total - n_c), max_value=max_each))
    consumers = [
        AccumulatedReport(f"c{i:02d}", draw(unit), draw(positive))
        for i in range(n_c)
    ]
    bystanders = [
        InstantaneousReport(f"b{i:02d}", draw(unit), draw(positive))
        for i in range(n_b)
    ]
    return consumers, bystanders


@given(observation_promise())
def test_instantaneous_trust_in_unit_interval(pair):
    observation, promise = pair
    assert 0.0 <= instantaneous_trust([observation.values], promise)[0] <= 1.0


@given(observation_promise())
def test_instantaneous_trust_full_when_overdelivering(pair):
    observation, promise = pair
    schema = observation.schema
    boosted = PerformanceVector(
        tuple(max(o, p) for o, p in zip(observation.values, promise.values)), schema
    )
    assert instantaneous_trust([boosted.values], promise)[0] == 1.0


@given(observation_promise(), st.integers(min_value=0, max_value=5))
def test_instantaneous_trust_monotone_per_attribute(pair, idx):
    observation, promise = pair
    i = idx % len(observation)
    raised = list(observation.values)
    raised[i] = raised[i] * 2.0 + 1.0
    better = PerformanceVector(tuple(raised), observation.schema)
    assert (instantaneous_trust([better.values], promise)[0]
            >= instantaneous_trust([observation.values], promise)[0])


@given(unit, unit, unit)
def test_update_accumulated_is_convex(prev, inst, alpha):
    out = update_accumulated(prev, inst, alpha)
    lo, hi = min(prev, inst), max(prev, inst)
    assert lo - 1e-12 <= out <= hi + 1e-12


@given(unit, unit, st.floats(min_value=0.0, max_value=0.99))
def test_update_accumulated_converges_to_constant_input(start, target, alpha):
    acc = start
    for _ in range(200):
        acc = update_accumulated(acc, target, alpha)
    assert abs(acc - target) < 1e-2 + (1.0 - (1.0 - alpha)) ** 200


@given(report_pool(min_total=1))
def test_group_weights_normalize_and_stay_nonnegative(pool):
    consumers, bystanders = pool
    if consumers:
        w = coverage_weights(consumers)
        assert all(x >= 0 for x in w)
        assert math.isclose(sum(w), 1.0, rel_tol=1e-9)
    if bystanders:
        w, _ = freshness_weights(bystanders)
        assert all(x >= 0 for x in w)
        assert math.isclose(sum(w), 1.0, rel_tol=1e-9)


@given(st.lists(unit, min_size=1, max_size=12), st.randoms(use_true_random=False))
def test_weights_are_permutation_equivariant(trusts, rnd):
    reports = [InstantaneousReport(f"b{i:02d}", t, 10.0 * (i + 1)) for i, t in enumerate(trusts)]
    shuffled = list(reports)
    rnd.shuffle(shuffled)
    base, _ = freshness_weights(reports)
    moved, _ = freshness_weights(shuffled)
    by_id = dict(zip((r.reporter_id for r in shuffled), moved))
    for report, weight in zip(reports, base):
        assert math.isclose(by_id[report.reporter_id], weight, rel_tol=1e-12)


@given(st.lists(unit, min_size=1, max_size=12))
def test_credibilities_in_unit_interval(values):
    creds = credibilities(values)
    assert all(0.0 <= c <= 1.0 for c in creds)


@given(st.lists(unit, min_size=1, max_size=12))
def test_value_at_pool_mean_has_full_credibility(values):
    mean = sum(values) / len(values)
    padded = values + [mean]
    # appending the mean moves the mean toward itself, so recompute
    new_mean = sum(padded) / len(padded)
    creds = credibilities(padded)
    assert creds[-1] == 1.0 - abs(mean - new_mean)


@given(report_pool())
def test_normalized_aggregate_stays_in_unit_interval(pool):
    consumers, bystanders = pool
    out = aggregate(consumers, bystanders, AggregationParams(mode="normalized"))
    assert -1e-12 <= out.overall <= 1.0 + 1e-12


@given(report_pool(), st.floats(min_value=0.0, max_value=1.0))
def test_normalized_never_below_verbatim(pool, beta):
    # per-group weight mass sum(cred * weight) <= 1, so dividing by it
    # can only raise a nonnegative group term
    consumers, bystanders = pool
    verbatim = aggregate(consumers, bystanders, AggregationParams(beta=beta, mode="verbatim"))
    normalized = aggregate(consumers, bystanders, AggregationParams(beta=beta, mode="normalized"))
    assert normalized.overall >= verbatim.overall - 1e-12


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5), unit)
def test_unanimous_crowd_scores_its_value_when_normalized(n_c, n_b, value):
    if n_c + n_b == 0:
        return
    consumers = [AccumulatedReport(f"c{i:02d}", value, 100.0 * (i + 1)) for i in range(n_c)]
    bystanders = [InstantaneousReport(f"b{i:02d}", value, 50.0 * (i + 1)) for i in range(n_b)]
    out = aggregate(consumers, bystanders, AggregationParams(mode="normalized"))
    assert math.isclose(out.overall, value, abs_tol=1e-12)


@given(report_pool())
@settings(max_examples=200)
def test_plain_mean_recovered_with_everything_forced(pool):
    # equal coverage and equal probe offsets give equal weights within each group
    consumers = [replace(r, coverage_duration=1.0) for r in pool[0]]
    bystanders = [replace(r, timestamp_offset=1.0) for r in pool[1]]
    share = len(consumers) / (len(consumers) + len(bystanders))
    out = aggregate(
        consumers,
        bystanders,
        AggregationParams(beta=share, mode="verbatim"),
        use_credibility=False,
    )
    assert math.isclose(out.overall, aggregate_basic(consumers, bystanders), abs_tol=1e-12)


@given(report_pool(min_total=2), unit)
def test_single_outlier_influence_is_bounded(pool, outlier_value):
    # swapping one report for an arbitrary value keeps the aggregate inside
    # the unit interval, so its influence can never exceed the full range
    consumers, bystanders = pool
    if not bystanders:
        return
    params = AggregationParams(mode="normalized")
    base = aggregate(consumers, bystanders, params)
    moved_reports = [
        InstantaneousReport(bystanders[0].reporter_id, outlier_value, bystanders[0].timestamp_offset)
    ] + bystanders[1:]
    moved = aggregate(consumers, moved_reports, params)
    assert abs(moved.overall - base.overall) <= 1.0


def _outcome(fn, *args, **kwargs):
    """What a call gives: its breakdown fields, or the type and message it raised."""
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # the oracle and aggregate() must fail alike
        return type(exc), str(exc)
    return (out.overall, out.consumer_term, out.bystander_term, out.degenerate_freshness,
            out.per_reporter)


# floats(min_value=0.0) never draws -0.0, which a sum from 0.0 turns into 0.0
trust_value = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), unit)
huge = st.floats(min_value=1e307, max_value=1.7e308)  # a group's sum passes the float range
offset = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e9))
coverage = st.one_of(st.sampled_from([1.0, 5e-324]),
                     st.floats(min_value=0.0, max_value=1e9, exclude_min=True), huge)


@st.composite
def oracle_case(draw):
    n_c = draw(st.integers(min_value=0, max_value=12))
    n_b = draw(st.integers(min_value=0, max_value=12))
    all_zero = draw(st.booleans())
    # one case in four is a crowd whose every trust value is -0.0
    trust = st.just(-0.0) if draw(st.integers(min_value=0, max_value=3)) == 0 else trust_value
    consumers = [
        AccumulatedReport(f"c{i:02d}", draw(trust), draw(coverage)) for i in range(n_c)
    ]
    bystanders = [
        InstantaneousReport(f"b{i:02d}", draw(trust), 0.0 if all_zero else draw(offset))
        for i in range(n_b)
    ]
    params = AggregationParams(
        beta=draw(st.sampled_from([0.0, 0.5, 1.0])),
        mode=draw(st.sampled_from(["verbatim", "normalized"])),
    )
    return consumers, bystanders, params, draw(st.booleans())


@given(oracle_case())
@settings(max_examples=400, deadline=None)
def test_aggregate_matches_the_per_report_oracle_exactly(case):
    consumers, bystanders, params, use_credibility = case
    expected = _outcome(aggregate_oracle, consumers, bystanders, params,
                        use_credibility=use_credibility)
    assert _outcome(aggregate, consumers, bystanders, params,
                    use_credibility=use_credibility) == expected


@given(oracle_case())
@settings(max_examples=200, deadline=None)
def test_a_crowd_on_the_array_kernel_matches_the_oracle_bit_for_bit(case):
    # the case tiled past _ARRAY_MIN reports; _outcome's == takes -0.0 for 0.0,
    # so the overall value and both terms are compared by their bits as well
    consumers, bystanders, params, use_credibility = case
    copies = -(-_ARRAY_MIN // max(1, len(consumers) + len(bystanders)))
    consumers, bystanders = consumers * copies, bystanders * copies
    outcomes = [
        _outcome(fn, consumers, bystanders, params, use_credibility=use_credibility)
        for fn in (aggregate, aggregate_oracle)
    ]
    bits = [
        [float(x).hex() for x in outcome[:3]] if len(outcome) == 5 else outcome
        for outcome in outcomes
    ]
    assert outcomes[0] == outcomes[1] and bits[0] == bits[1]


def test_aggregate_matches_the_oracle_on_a_query_workload_cycle():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "queries.py"
    spec = importlib.util.spec_from_file_location("perfbench_queries", path)
    queries = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(queries)
    mismatched = [
        k for k, (consumers, bystanders) in enumerate(queries.build_sets(1))
        if _outcome(aggregate, consumers, bystanders, queries.PARAMS)
        != _outcome(aggregate_oracle, consumers, bystanders, queries.PARAMS)
    ]
    assert mismatched == []


@given(oracle_case(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_weights_and_credibilities_are_float_tuples_built_on_first_read(case, crowd):
    # a session on the lists as drawn, or the case tiled past _ARRAY_MIN onto arrays
    consumers, bystanders, params, use_credibility = case
    if crowd:
        copies = -(-_ARRAY_MIN // max(1, len(consumers) + len(bystanders)))
        consumers, bystanders = consumers * copies, bystanders * copies
    try:
        expected = aggregate_oracle(consumers, bystanders, params, use_credibility=use_credibility)
    except (NoEvidenceError, ZeroDivisionError):
        return  # aggregate raises alike: test_aggregate_matches_the_per_report_oracle_exactly
    breakdown = aggregate(consumers, bystanders, params, use_credibility=use_credibility)
    assert "weights" not in vars(breakdown) and "credibilities" not in vars(breakdown)
    for name, field in (("weights", "weight"), ("credibilities", "credibility")):
        got = getattr(breakdown, name)
        assert type(got) is tuple and all(type(x) is float for x in got)
        assert [x.hex() for x in got] == [float(getattr(t, field)).hex()
                                          for t in expected.per_reporter]
        assert getattr(breakdown, name) is got  # built once


def _crowd():
    consumers = [AccumulatedReport(f"c{i}", (i % 7) / 7, 1.0 + i) for i in range(40)]
    bystanders = [InstantaneousReport(f"b{i}", (i % 5) / 5, 3.0 * i) for i in range(_ARRAY_MIN)]
    return consumers, bystanders


def test_a_crowd_breakdown_equals_one_built_from_the_tuples_it_reads():
    read = aggregate(*_crowd())
    by_hand = TrustBreakdown(read.overall, read.consumer_term, read.bystander_term,
                             read.degenerate_freshness, read.reports, read.weights,
                             read.credibilities)
    unread = aggregate(*_crowd())
    assert unread == by_hand and by_hand == unread
    assert hash(aggregate(*_crowd())) == hash(by_hand)
    assert repr(unread) == repr(by_hand)
    assert unread.per_reporter == by_hand.per_reporter
    moved = (*read.weights[:-1], read.weights[-1] / 2)
    assert unread != replace(by_hand, weights=moved)
    assert unread != replace(by_hand, credibilities=read.credibilities[::-1])


@pytest.mark.parametrize("crowd", [False, True], ids=["session", "crowd"])
def test_an_unread_breakdown_survives_pickle_and_copy(crowd):
    consumers, bystanders = _crowd() if crowd else (_crowd()[0][:3], _crowd()[1][:4])
    reference = aggregate(consumers, bystanders)
    unread = aggregate(consumers, bystanders)
    copies = [pickle.loads(pickle.dumps(unread)), copy.copy(unread), copy.deepcopy(unread)]
    assert "weights" not in vars(unread) and "credibilities" not in vars(unread)
    for copied in copies:
        assert type(copied) is TrustBreakdown
        assert copied == reference and hash(copied) == hash(reference)
        assert copied.per_reporter == reference.per_reporter


huge_offset = st.one_of(offset, huge)


@st.composite
def scored_rows(draw):
    """Trust rows over one set of reports: each row's (consumer reports,
    bystander reports), the params and whether credibility damps them."""
    n_c = draw(st.integers(min_value=0, max_value=6))
    n_b = draw(st.integers(min_value=0, max_value=6))
    rows = draw(st.integers(min_value=1, max_value=4))
    durations = [draw(coverage) for _ in range(n_c)]
    offsets = [0.0] * n_b if draw(st.booleans()) else [draw(huge_offset) for _ in range(n_b)]
    reports = [
        ([AccumulatedReport(f"c{i}", draw(trust_value), d) for i, d in enumerate(durations)],
         [InstantaneousReport(f"b{i}", draw(trust_value), o) for i, o in enumerate(offsets)])
        for _ in range(rows)
    ]
    params = AggregationParams(
        beta=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))),
        mode=draw(st.sampled_from([VERBATIM, NORMALIZED])),
    )
    return reports, params, draw(st.booleans())


@st.composite
def unit_case(draw):
    """A report set, its params and whether credibility damps it; in one
    case of two every report is 1.0, and in one of two every offset is 0."""
    n_c = draw(st.integers(min_value=0, max_value=12))
    n_b = draw(st.integers(min_value=0 if n_c else 1, max_value=12))
    trust = st.just(1.0) if draw(st.booleans()) else trust_value
    zero_offsets = draw(st.booleans())
    consumers = [
        AccumulatedReport(f"c{i:02d}", draw(trust), draw(coverage)) for i in range(n_c)
    ]
    bystanders = [
        InstantaneousReport(f"b{i:02d}", draw(trust), 0.0 if zero_offsets else draw(huge_offset))
        for i in range(n_b)
    ]
    params = AggregationParams(beta=draw(unit), mode=draw(st.sampled_from([VERBATIM, NORMALIZED])))
    return consumers, bystanders, params, draw(st.booleans())


def _unanimous_bystanders(n):
    return [], [InstantaneousReport(f"b{i:03d}", 1.0, 0.0) for i in range(n)]


@given(unit_case())
# uniform weights of 1/49 add up past 1: the list path once gave 1.0000000000000007
@example((*_unanimous_bystanders(49), AggregationParams(), True))
# and 320 of 1/320 on the kernel, 1.0000000000000058
@example((*_unanimous_bystanders(320), AggregationParams(), True))
# coverage weights 1/13, 6/13, 3/13 and 3/13 once gave 1.0000000000000002
@example(([AccumulatedReport(f"c{i}", 1.0, d) for i, d in enumerate([1.0, 6.0, 3.0, 3.0])], [],
          AggregationParams(), True))
@settings(max_examples=200, deadline=None)
def test_every_trust_value_is_in_the_unit_interval_and_classifies(case):
    # the set as drawn, then tiled past _ARRAY_MIN reports onto the kernel
    consumers, bystanders, params, use_credibility = case
    copies = -(-_ARRAY_MIN // (len(consumers) + len(bystanders)))
    for cr, br in ((consumers, bystanders), (consumers * copies, bystanders * copies)):
        out = aggregate(cr, br, params, use_credibility=use_credibility)
        for value in (out.overall, out.consumer_term, out.bystander_term):
            assert 0.0 <= value <= 1.0
        assert isinstance(classify(out.overall), TrustLevel)
        weights_c = coverage_weights(cr) if cr else []
        weights_b = freshness_weights(br)[0] if br else []
        overall = aggregate_overall([[r.trust for r in cr + br]], weights_c, weights_b, params,
                                    use_credibility)
        assert float(overall[0]).hex() == float(out.overall).hex()


def _bits_or_raised(fn):
    """Each value's exact bits, or the type and message of what fn raised."""
    try:
        return [float(x).hex() for x in fn()]
    except Exception as exc:  # aggregate_overall and aggregate() must fail alike
        return type(exc), str(exc)


@given(scored_rows())
@settings(max_examples=400, deadline=None)
def test_array_scores_match_aggregate_bit_for_bit(case):
    reports, params, use_credibility = case
    consumers, bystanders = reports[0]
    weights_c = coverage_weights(consumers) if consumers else []
    weights_b = freshness_weights(bystanders)[0] if bystanders else []
    values = [[r.trust for r in cr + br] for cr, br in reports]
    expected = _bits_or_raised(lambda: [
        aggregate(cr, br, params, use_credibility=use_credibility).overall for cr, br in reports])
    assert _bits_or_raised(
        lambda: aggregate_overall(values, weights_c, weights_b, params, use_credibility)) == expected


@pytest.mark.parametrize("use_credibility", [True, False])
def test_a_zero_weight_mass_raises_when_normalized(use_credibility):
    params = AggregationParams(mode=NORMALIZED)
    with pytest.raises(ZeroDivisionError):
        aggregate_overall([[0.5, 0.7], [0.2, 0.4]], [], [0.0, 0.0], params, use_credibility)
    # verbatim adds the terms up without dividing by their mass
    verbatim = AggregationParams(mode=VERBATIM)
    assert aggregate_overall([[0.5, 0.7]], [], [0.0, 0.0], verbatim).tolist() == [0.0]


@pytest.mark.parametrize("weights_c, weights_b", [([[0.5]], [0.5]), ([0.5], [[0.5]]), (0.5, [0.5])],
                         ids=["consumers-2d", "bystanders-2d", "consumers-scalar"])
def test_aggregate_overall_rejects_weights_that_are_not_one_dimensional(weights_c, weights_b):
    with pytest.raises(ValueError, match="^each group's weights must be one-dimensional$"):
        aggregate_overall([[0.2, 0.4]], weights_c, weights_b)


@pytest.mark.parametrize(
    "values, weights_c, weights_b, message",
    [
        ([[0.2, 0.4, 0.6, 0.8]], [0.5, 0.5], [1.0], r"must be \(rows x 3\), got shape \(1, 4\)"),
        ([[math.nan, 0.4]], [1.0], [1.0], r"must be in \[0, 1\], got nan"),
        ([[1.5, 0.9]], [1.0], [1.0], r"must be in \[0, 1\], got 1.5"),
        ([[0.5, 0.5]], [math.nan], [1.0], r"weight must be in \[0, 1\], got nan"),
        ([[0.5, 0.5]], [-3.0], [1.0], r"weight must be in \[0, 1\], got -3.0"),
        ([[0.9, 0.9]], [5.0], [1.0], r"weight must be in \[0, 1\], got 5.0"),
    ],
    ids=["wider-than-the-weights", "nan", "above-one", "nan-weight", "negative-weight",
         "weight-above-one"],
)
def test_aggregate_overall_rejects_rows_it_cannot_score(values, weights_c, weights_b, message):
    with pytest.raises(ValueError, match=message):
        aggregate_overall(values, weights_c, weights_b)
