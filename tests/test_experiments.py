"""Sweep bookkeeping: composition draws, synthesized rosters, suite structure."""

from dataclasses import replace

import pytest

import mlt.experiments
from mlt.agents import MALICIOUS
from mlt.config import load_scenario_file
from mlt.evaluation import score
from mlt.experiments import (
    ABLATION,
    COUNT_SWEEP,
    ESTIMATOR_COMPARE,
    FULL,
    ExperimentSpec,
    _classify_clamped,
    _composition,
    _rep_outcomes,
    _sweep_points,
    _synth_roster,
    _variant,
    run_experiment_suite,
)
from mlt.simulator import run_scenario
from mlt.trust import NORMALIZED, VERBATIM, aggregate

from conftest import SCENARIO_DIR, make_provider, make_scenario

REPS = 40  # enough replications for structure checks without slowing the suite


@pytest.fixture
def base(session, promise):
    provider = make_provider(promise, honesty_gap=0.2, jitter_rel=0.1)
    return make_scenario(session, provider, query_time=5400.0, seed=71)


class TestSpecValidation:
    def test_defaults_are_valid(self):
        ExperimentSpec(ABLATION)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="drift-sweep"),
            dict(kind=ABLATION, replications=0),
            dict(kind=ABLATION, reporters=0),
            dict(kind=ABLATION, reporters=65),
            dict(kind=ESTIMATOR_COMPARE, reporters=1),
            dict(kind=ABLATION, adversary_frac=1.2),
            dict(kind=ABLATION, adversary_frac=-0.1),
            dict(kind=ABLATION, trust_range=(0.0, 0.9)),
            dict(kind=ABLATION, trust_range=(0.9, 0.2)),
            dict(kind=ABLATION, trust_range=(0.2, 1.1)),
        ],
    )
    def test_bad_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentSpec(**kwargs)

    @pytest.mark.parametrize("field", ["replications", "reporters"])
    def test_counts_must_be_integers(self, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ExperimentSpec(ABLATION, **{field: 2.5})


class TestComposition:
    def test_same_rep_same_draws(self):
        spec = ExperimentSpec(COUNT_SWEEP)
        a = _composition(7, 3, spec)
        b = _composition(7, 3, spec)
        assert a[0] == b[0]
        assert (a[1] == b[1]).all()
        assert a[2] == b[2]

    def test_different_reps_differ(self):
        spec = ExperimentSpec(COUNT_SWEEP)
        assert _composition(7, 0, spec)[2] != _composition(7, 1, spec)[2]

    def test_target_respects_trust_range(self):
        spec = ExperimentSpec(COUNT_SWEEP, trust_range=(0.4, 0.6))
        for rep in range(50):
            target, _, _ = _composition(7, rep, spec)
            assert 0.4 <= target <= 0.6


class TestSynthRoster:
    def test_slots_alternate_groups(self):
        _, flags, _ = _composition(7, 0, ExperimentSpec(COUNT_SWEEP))
        bystanders, consumers = _synth_roster(COUNT_SWEEP, 5400.0, 5, flags, 0.0)
        assert [b.id for b in bystanders] == ["b00", "b01", "b02"]
        assert [c.id for c in consumers] == ["c00", "c01"]

    def test_smaller_roster_is_a_prefix(self):
        # slot schedules depend only on the slot index, so adding a reporter
        # leaves every existing reporter untouched
        _, flags, _ = _composition(7, 0, ExperimentSpec(COUNT_SWEEP))
        small = _synth_roster(COUNT_SWEEP, 5400.0, 6, flags, 0.25)
        large = _synth_roster(COUNT_SWEEP, 5400.0, 7, flags, 0.25)
        assert large[0][: len(small[0])] == small[0]
        assert large[1][: len(small[1])] == small[1]

    def test_adversary_flags_follow_fraction(self):
        _, flags, _ = _composition(7, 0, ExperimentSpec(COUNT_SWEEP))
        all_honest = _synth_roster(COUNT_SWEEP, 5400.0, 8, flags, 0.0)
        all_bad = _synth_roster(COUNT_SWEEP, 5400.0, 8, flags, 1.0)
        roster = [r.profile.kind for group in all_honest for r in group]
        assert set(roster) == {"honest"}
        roster = [r.profile.kind for group in all_bad for r in group]
        assert set(roster) == {MALICIOUS}

    def test_rosters_fit_inside_the_query_window(self, base):
        _, flags, _ = _composition(7, 0, ExperimentSpec(COUNT_SWEEP))
        for kind in (COUNT_SWEEP, ESTIMATOR_COMPARE):
            bystanders, consumers = _synth_roster(kind, 5400.0, 16, flags, 0.5)
            for b in bystanders:
                assert b.schedule.last_offset <= 5400.0
            for c in consumers:
                assert c.usage.usage_end <= 5400.0


class TestVariant:
    def test_vary_provider_overrides_gap(self, base):
        spec = ExperimentSpec(COUNT_SWEEP, trust_range=(0.4, 0.6))
        scenario = _variant(base, spec, COUNT_SWEEP, 4, 0.0, rep=0)
        target, _, _ = _composition(base.seed, 0, spec)
        assert scenario.provider.honesty_gap == pytest.approx(1.0 - target)

    def test_fixed_provider_keeps_gap(self, base):
        spec = ExperimentSpec(ABLATION, vary_provider=False)
        scenario = _variant(base, spec, ABLATION, 4, 0.0, rep=0)
        assert scenario.provider.honesty_gap == base.provider.honesty_gap

    def test_full_kind_keeps_the_scenario_roster(self, base, session, promise, honest):
        from mlt.simulator import Bystander
        from mlt.agents import ProbeSchedule

        roster = make_scenario(
            session,
            make_provider(promise, honesty_gap=0.2, jitter_rel=0.1),
            bystanders=[Bystander("b00", honest, ProbeSchedule(600.0, 600.0, 2))],
            seed=71,
        )
        spec = ExperimentSpec(FULL)
        scenario = _variant(roster, spec, FULL, 1, 0.0, rep=0)
        assert scenario.bystanders == roster.bystanders
        assert scenario.consumers == roster.consumers


class TestSuite:
    def test_ablation_rows(self, base):
        spec = ExperimentSpec(ABLATION, replications=REPS, reporters=6, adversary_frac=0.25)
        results = run_experiment_suite(base, spec)
        keys = [(r.config["adversary_frac"], r.config["credibility"]) for r in results]
        assert keys == [(0.0, "on"), (0.0, "off"), (0.25, "on"), (0.25, "off")]
        for r in results:
            assert r.n_samples == REPS
            assert r.config["reporters"] == 6
            assert r.config["seed"] == base.seed

    def test_count_sweep_rows(self, base):
        spec = ExperimentSpec(COUNT_SWEEP, replications=REPS, reporters=4)
        results = run_experiment_suite(base, spec)
        assert [r.config["reporters"] for r in results] == [1, 2, 3, 4]
        assert all(r.config["adversary_frac"] == 0.25 for r in results)

    def test_estimator_rows(self, base):
        spec = ExperimentSpec(ESTIMATOR_COMPARE, replications=REPS, reporters=4,
                              adversary_frac=0.0)
        results = run_experiment_suite(base, spec)
        assert [r.config["estimator"] for r in results] == ["instantaneous", "accumulated"]

    def test_full_uses_declared_roster(self, session, promise, honest):
        from mlt.agents import ProbeSchedule, ReporterProfile
        from mlt.simulator import Bystander, Consumer, ConsumerUsage

        malicious = ReporterProfile("malicious", malicious_strategy="random")
        scenario = make_scenario(
            session,
            make_provider(promise, honesty_gap=0.2, jitter_rel=0.1),
            bystanders=[
                Bystander("b00", honest, ProbeSchedule(600.0, 600.0, 2)),
                Bystander("b01", malicious, ProbeSchedule(900.0, 600.0, 2)),
            ],
            consumers=[
                Consumer("c00", honest, ConsumerUsage(0.0, 3600.0, 600.0)),
                Consumer("c01", honest, ConsumerUsage(300.0, 3900.0, 600.0)),
            ],
            seed=5,
        )
        results = run_experiment_suite(scenario, ExperimentSpec(FULL, replications=REPS))
        assert len(results) == 1
        assert results[0].config["reporters"] == 4
        assert results[0].config["adversary_frac"] == 0.25

    def test_suite_is_deterministic(self, base):
        spec = ExperimentSpec(ABLATION, replications=REPS, reporters=4)
        a = run_experiment_suite(base, spec)
        b = run_experiment_suite(base, spec)
        assert [r.accuracy for r in a] == [r.accuracy for r in b]
        assert [r.counts for r in a] == [r.counts for r in b]

    def test_parallel_matches_serial(self, base):
        spec = ExperimentSpec(COUNT_SWEEP, replications=REPS, reporters=2)
        serial = run_experiment_suite(base, spec, jobs=1)
        parallel = run_experiment_suite(base, spec, jobs=2)
        assert [r.counts for r in serial] == [r.counts for r in parallel]

    @pytest.mark.parametrize("replications, jobs, started",
                             [(2, 4, [2]), (1, 4, []), (3, 2, [2])])
    def test_pool_is_never_larger_than_the_work(self, base, monkeypatch,
                                                replications, jobs, started):
        sizes = []
        real_pool = mlt.experiments.Pool

        def recording_pool(processes):
            sizes.append(processes)
            return real_pool(processes)

        monkeypatch.setattr(mlt.experiments, "Pool", recording_pool)
        spec = ExperimentSpec(COUNT_SWEEP, replications=replications, reporters=2)
        run_experiment_suite(base, spec, jobs=jobs)
        assert sizes == started

    def test_jobs_must_be_positive(self, base):
        with pytest.raises(ValueError):
            run_experiment_suite(base, ExperimentSpec(ABLATION, replications=1), jobs=0)

    def test_sweep_scores_under_the_scenario_mode(self, base):
        verbatim = replace(base, params=replace(base.params, mode=VERBATIM))
        spec = ExperimentSpec(COUNT_SWEEP, replications=REPS)
        points = _sweep_points(verbatim, spec)
        modes_disagree = 0
        for rep in range(REPS):
            args = (verbatim, spec, COUNT_SWEEP, spec.reporters, spec.adversary_frac, rep)
            trace = run_scenario(_variant(*args))
            cr, br = trace.consumer_reports, trace.bystander_reports
            level = {
                mode: _classify_clamped(
                    aggregate(cr, br, replace(verbatim.params, mode=mode)).overall,
                    spec.thresholds,
                )
                for mode in (VERBATIM, NORMALIZED)
            }
            # the last point is the N = spec.reporters one simulated above
            assert _rep_outcomes((verbatim, spec, points, rep))[-1] == level[VERBATIM]
            modes_disagree += level[VERBATIM] != level[NORMALIZED]
        assert modes_disagree > 0  # otherwise the check could not tell the modes apart


class TestCommonRandomNumbers:
    def test_honest_reporters_report_the_same_at_every_point(self):
        scenario, _ = load_scenario_file(SCENARIO_DIR / "acceptance_countsweep.json")
        spec = ExperimentSpec(COUNT_SWEEP, adversary_frac=0.0)
        seen = {"b00": [], "c00": []}
        for n in range(2, spec.reporters + 1):
            trace = run_scenario(_variant(scenario, spec, COUNT_SWEEP, n, 0.0, rep=0))
            for report in trace.bystander_reports + trace.consumer_reports:
                if report.reporter_id in seen:
                    events = [e for e in trace.events if e.reporter_id == report.reporter_id]
                    seen[report.reporter_id].append((report, events))
        for reporter_id, runs in seen.items():
            assert len(runs) == spec.reporters - 1, reporter_id
            assert all(run == runs[0] for run in runs), reporter_id


def per_point_oracle(base, spec):
    """(predicted, actual) per sweep row, each point simulated from its own scenario.

    Every point of every replication runs its own _variant scenario through
    run_scenario and scores it with aggregate, with no sharing between points.
    """
    if spec.kind == COUNT_SWEEP:
        points = [(n, spec.adversary_frac, ("on",)) for n in range(1, spec.reporters + 1)]
    else:
        points = [(spec.reporters, f, ("on", "off")) for f in (0.0, spec.adversary_frac)]
    rows = []
    for n, frac, arms in points:
        traces = [
            run_scenario(_variant(base, spec, spec.kind, n, frac, rep))
            for rep in range(spec.replications)
        ]
        actual = [_classify_clamped(t.ground_truth_trust, spec.thresholds) for t in traces]
        for arm in arms:
            predicted = [
                _classify_clamped(
                    aggregate(t.consumer_reports, t.bystander_reports, base.params,
                              use_credibility=arm == "on").overall,
                    spec.thresholds,
                )
                for t in traces
            ]
            rows.append((predicted, actual))
    return rows


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("kind", [COUNT_SWEEP, ABLATION])
def test_simulating_once_matches_the_per_point_oracle(base, kind, jobs, monkeypatch):
    spec = ExperimentSpec(kind, replications=50)
    rows = []

    def recording_score(predicted, actual, config):
        rows.append((list(predicted), list(actual)))
        return score(predicted, actual, config)

    monkeypatch.setattr(mlt.experiments, "score", recording_score)
    run_experiment_suite(base, spec, jobs=jobs)
    assert rows == per_point_oracle(base, spec)
