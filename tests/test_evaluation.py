"""Three-level classification and the precision/recall/accuracy scoring."""

import math
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mlt.evaluation import (
    DEFAULT_THRESHOLDS,
    ConfusionCounts,
    LevelCounts,
    Thresholds,
    TrustLevel,
    classify,
    confusion,
    score,
)

LOW, MID, HIGH = TrustLevel.LOWLY, TrustLevel.MODERATELY, TrustLevel.HIGHLY

levels = st.sampled_from(list(TrustLevel))
LEVELS = tuple(TrustLevel)  # a level index's TrustLevel


def indices(labels) -> np.ndarray:
    """TrustLevels as the level-index array that confusion and score take."""
    return np.array([LEVELS.index(level) for level in labels], dtype=np.intp)


def counter_tally(predicted, actual) -> ConfusionCounts:
    """Confusion counts from one Counter over the (predicted, actual) pairs of
    TrustLevels, as they were counted before level indices."""
    n = len(predicted)
    pairs = Counter(zip(predicted, actual))
    per_level = {}
    for level in TrustLevel:
        correct = pairs[level, level]
        detected = sum(count for (p, _), count in pairs.items() if p == level)
        actual_n = sum(count for (_, a), count in pairs.items() if a == level)
        per_level[level] = LevelCounts(correct, detected, actual_n, n - detected - actual_n + correct)
    return ConfusionCounts(samples=n, per_level=per_level)


class TestClassify:
    @pytest.mark.parametrize(
        "trust,expected",
        [
            (0.0, LOW),
            (0.33, LOW),
            (1.0 / 3.0, MID),   # a value on a cut belongs to the upper bucket
            (0.5, MID),
            (2.0 / 3.0, HIGH),
            (0.9, HIGH),
            (1.0, HIGH),
        ],
    )
    def test_default_boundaries(self, trust, expected):
        assert classify(trust) is expected

    def test_custom_thresholds(self):
        narrow = Thresholds(0.39, 0.61)
        assert classify(0.39, narrow) is MID
        assert classify(0.60, narrow) is MID
        assert classify(0.61, narrow) is HIGH

    @pytest.mark.parametrize("bad", [-0.01, 1.01, 2.0])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="trust"):
            classify(bad)

    @pytest.mark.parametrize("low,high", [(0.0, 0.5), (0.5, 0.5), (0.6, 0.4), (0.5, 1.0)])
    def test_threshold_order_enforced(self, low, high):
        with pytest.raises(ValueError):
            Thresholds(low, high)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_monotone_in_trust(self, a, b):
        lo, hi = sorted((a, b))
        order = list(TrustLevel)
        assert order.index(classify(lo)) <= order.index(classify(hi))

    def test_level_string_form(self):
        assert str(HIGH) == "highly"
        assert [str(level) for level in TrustLevel] == ["lowly", "moderately", "highly"]

    def test_default_thresholds_are_thirds(self):
        assert DEFAULT_THRESHOLDS == Thresholds(1.0 / 3.0, 2.0 / 3.0)


class TestConfusion:
    def test_two_sample_tally(self):
        counts = confusion(indices([HIGH, HIGH]), indices([HIGH, LOW]))
        assert counts.samples == 2
        assert counts.per_level[HIGH] == LevelCounts(1, 2, 1, 0)
        assert counts.per_level[LOW] == LevelCounts(0, 0, 1, 1)
        assert counts.per_level[MID] == LevelCounts(0, 0, 0, 2)

    def test_length_mismatch_and_empty_rejected(self):
        with pytest.raises(ValueError, match="length"):
            confusion(indices([HIGH]), indices([HIGH, LOW]))
        with pytest.raises(ValueError, match="at least one"):
            confusion(indices([]), indices([]))

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=300))
    def test_level_indices_count_as_the_pair_tally(self, pairs):
        predicted, actual = (np.array(column, dtype=np.intp) for column in zip(*pairs))
        expected = counter_tally([LEVELS[i] for i in predicted], [LEVELS[i] for i in actual])
        counts = confusion(predicted, actual)
        assert counts == expected
        assert {type(v) for c in counts.per_level.values() for v in astuple(c)} == {int}
        assert confusion(predicted.astype(np.uint64), actual) == expected
        # the strided columns of a (sample x label) array, as a sweep passes them
        outcomes = np.stack([actual, predicted], axis=1)
        assert confusion(outcomes[:, 1], outcomes[:, 0]) == expected

    @pytest.mark.parametrize(
        "labels",
        [["lowly"], [None], [LOW], [0], np.array([0.0]), np.array([3]), np.array([-1]),
         np.array([[0]])],
        ids=["a string", "None", "a TrustLevel list", "an int list", "a float array", "index 3",
             "index -1", "2-d"],
    )
    def test_labels_that_are_no_level_rejected(self, labels):
        with pytest.raises(ValueError):
            confusion(labels, indices([LOW]))
        with pytest.raises(ValueError):
            confusion(indices([LOW]), labels)


class TestScore:
    def test_overconfident_predictions(self):
        # both sessions called highly trusted, only one actually was
        result = score(indices([HIGH, HIGH]), indices([HIGH, LOW]))
        highly = result.per_level[HIGH]
        assert highly.precision == 0.5
        assert highly.recall == 1.0
        assert highly.accuracy == 0.5
        assert result.per_level[LOW].recall == 0.0
        assert result.per_level[LOW].precision is None
        assert result.accuracy == 0.5

    def test_swapped_labels_score_zero(self):
        result = score(indices([LOW, HIGH]), indices([HIGH, LOW]))
        assert result.accuracy == 0.0
        assert result.per_level[LOW].recall == 0.0
        assert result.per_level[HIGH].recall == 0.0
        # moderately was never predicted nor actual: undefined both ways
        assert result.per_level[MID].precision is None
        assert result.per_level[MID].recall is None
        assert result.per_level[MID].accuracy == 1.0

    def test_macro_skips_undefined_levels(self):
        result = score(indices([HIGH, HIGH]), indices([HIGH, LOW]))
        # precision defined only for highly (0.5); recall for highly and lowly
        assert result.macro_precision == 0.5
        assert result.macro_recall == pytest.approx((1.0 + 0.0) / 2.0)
        assert result.macro_accuracy == pytest.approx((0.5 + 0.5 + 1.0) / 3.0)

    def test_perfect_prediction(self):
        labels = [LOW, MID, HIGH, MID]
        result = score(indices(labels), indices(labels))
        assert result.accuracy == 1.0
        assert result.macro_precision == 1.0
        assert result.macro_recall == 1.0
        assert result.stderr_accuracy == 0.0

    def test_stderr_is_binomial(self):
        result = score(indices([HIGH, HIGH, LOW, LOW]), indices([HIGH, LOW, LOW, LOW]))
        p = result.accuracy
        assert p == 0.75
        assert result.stderr_accuracy == pytest.approx(math.sqrt(p * (1 - p) / 4))

    def test_config_is_echoed_as_a_copy(self):
        config = {"kind": "demo"}
        result = score(indices([HIGH]), indices([HIGH]), config)
        assert result.config == {"kind": "demo"}
        config["kind"] = "mutated"
        assert result.config == {"kind": "demo"}

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=300))
    def test_macro_scores_are_numbers_in_unit_interval(self, pairs):
        # every level may lack a precision or a recall, but never all three
        predicted, actual = (np.array(column, dtype=np.intp) for column in zip(*pairs))
        result = score(predicted, actual)
        for macro in (result.macro_precision, result.macro_recall, result.macro_accuracy):
            assert type(macro) is float
            assert 0.0 <= macro <= 1.0

    @given(st.lists(st.tuples(levels, levels), min_size=1, max_size=60), st.randoms())
    def test_permutation_invariance(self, pairs, rand):
        predicted, actual = zip(*pairs)
        base = score(indices(predicted), indices(actual))
        shuffled = list(pairs)
        rand.shuffle(shuffled)
        p2, a2 = zip(*shuffled)
        other = score(indices(p2), indices(a2))
        assert base.counts == other.counts
        assert base.accuracy == other.accuracy
        assert base.macro_accuracy == other.macro_accuracy

    @given(st.lists(st.tuples(levels, levels), min_size=1, max_size=60))
    def test_per_level_accuracy_bounds(self, pairs):
        predicted, actual = zip(*pairs)
        result = score(indices(predicted), indices(actual))
        n = result.n_samples
        for level, metrics in result.per_level.items():
            c = result.counts.per_level[level]
            assert 0.0 <= metrics.accuracy <= 1.0
            # errors on this level cannot exceed its detections plus actuals;
            # compare in integers so float rounding cannot flip the bound
            assert c.correct + c.correct_not >= n - c.detected - c.actual

    @given(st.lists(st.tuples(levels, levels), min_size=1, max_size=60))
    def test_overall_accuracy_consistent_with_counts(self, pairs):
        predicted, actual = zip(*pairs)
        result = score(indices(predicted), indices(actual))
        agree = sum(1 for p, a in pairs if p == a)
        assert result.accuracy == agree / len(pairs)
