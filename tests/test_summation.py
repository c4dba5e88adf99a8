"""The trust math on the summation path of Python 3.12 and later.

From 3.12 the built-in sum() compensates its rounding, so trust.left_sum is
the loop trust._sum_left there; through 3.11 it is sum() itself.  These tests
put the loop in left_sum's place, in trust and in evaluation, so the path
that every Python from 3.12 runs is run on any interpreter, and hold it to
the same bytes and bits as the other.
"""

import pytest

from mlt import evaluation, trust
from mlt.experiments import KINDS

import test_experiments
import test_trust_properties
from test_run_snapshots import FORMATS, SCENARIOS, run_stdout, snapshot_path


@pytest.fixture
def loop_sums(monkeypatch):
    monkeypatch.setattr(trust, "left_sum", trust._sum_left)
    monkeypatch.setattr(evaluation, "left_sum", trust._sum_left)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_run_output_matches_the_snapshot_when_sums_loop(loop_sums, scenario, kind, fmt):
    assert run_stdout(scenario, kind, fmt) == snapshot_path(scenario, kind, fmt).read_bytes()


def test_array_scores_match_aggregate_bit_for_bit_when_sums_loop(loop_sums):
    # the hypothesis test itself, run with the loop behind aggregate's sums
    test_trust_properties.test_array_scores_match_aggregate_bit_for_bit()


def test_a_crowd_matches_the_oracle_bit_for_bit_when_sums_loop(loop_sums):
    test_trust_properties.test_a_crowd_on_the_array_kernel_matches_the_oracle_bit_for_bit()


def test_weights_and_credibilities_are_float_tuples_when_sums_loop(loop_sums):
    test_trust_properties.test_weights_and_credibilities_are_float_tuples_built_on_first_read()


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_matches_the_per_point_oracle_when_sums_loop(loop_sums, kind, monkeypatch):
    test_experiments.assert_every_kind_matches_the_oracle(kind, monkeypatch, jobs=1)
