"""Sweep bookkeeping: composition draws, synthesized rosters, suite structure."""

from dataclasses import replace

import numpy as np
import pytest

import mlt.experiments
from mlt.agents import MALICIOUS, RANDOM, ProbeSchedule, ReporterProfile, noise_free_performance
from mlt.config import load_scenario_file
from mlt.evaluation import score
from mlt.experiments import (
    ABLATION,
    COUNT_SWEEP,
    ESTIMATOR_COMPARE,
    FULL,
    KINDS,
    ExperimentSpec,
    _block_outcomes,
    _classify_clamped,
    _compositions,
    _slot_agents,
    _Sweep,
    _sweep_points,
    run_experiment_suite,
)
from mlt.simulator import _COMP_TAG, Bystander, Scenario, run_scenario
from mlt.trust import NORMALIZED, VERBATIM, aggregate, instantaneous_trust

from conftest import SCENARIO_DIR, make_provider, make_scenario

REPS = 40  # enough replications for structure checks without slowing the suite


def composition_oracle(seed, rep, spec):
    """One replication's (quality, flags, scenario seed), from a stream built by numpy itself."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, _COMP_TAG, rep)))
    lo, hi = spec.trust_range
    target = lo + (hi - lo) * rng.random()
    flags = rng.random(64)
    return target, flags, int(rng.integers(0, 2**63))


def synth_roster(kind, query_time, n_slots, flags, frac):
    """(bystanders, consumers) of the roster whose slot i turns malicious when flags[i] < frac."""
    roster = [pair[int(flags[i] < frac)] for i, pair in enumerate(_slot_agents(kind, query_time, n_slots))]
    return tuple(roster[0::2]), tuple(roster[1::2])


def variant_oracle(base, spec, kind, n_reporters, frac, rep):
    """One replication's scenario at one point, built on its own and checked in
    full by Scenario: the composition, then each honest slot agent turned
    malicious (random) when its flag is below frac."""
    target, flags, scenario_seed = composition_oracle(base.seed, rep, spec)
    provider = base.provider
    if spec.vary_provider:
        provider = replace(provider, honesty_gap=1.0 - target)
    if kind == FULL:
        bystanders, consumers = base.bystanders, base.consumers
    else:
        roster = [
            replace(honest, profile=ReporterProfile(MALICIOUS, malicious_strategy=RANDOM))
            if flags[slot] < frac else honest
            for slot, (honest, _) in enumerate(_slot_agents(kind, base.query_time, n_reporters))
        ]
        bystanders, consumers = roster[0::2], roster[1::2]
    return replace(base, provider=provider, bystanders=bystanders, consumers=consumers,
                   seed=scenario_seed)


def ground_truth(provider):
    return instantaneous_trust(noise_free_performance(provider), provider.promise)


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
        for value in (2.5, True):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                ExperimentSpec(ABLATION, **{field: value})


class TestComposition:
    def test_same_rep_same_draws(self):
        spec = ExperimentSpec(COUNT_SWEEP)
        (a,) = _compositions(7, [3], spec)
        (b,) = _compositions(7, [3], spec)
        assert a[0] == b[0]
        assert (a[1] == b[1]).all()
        assert a[2] == b[2]

    def test_different_reps_differ(self):
        spec = ExperimentSpec(COUNT_SWEEP)
        first, second = _compositions(7, [0, 1], spec)
        assert first[2] != second[2]

    def test_target_respects_trust_range(self):
        spec = ExperimentSpec(COUNT_SWEEP, trust_range=(0.4, 0.6))
        for target, _, _ in _compositions(7, range(50), spec):
            assert 0.4 <= target <= 0.6

    @pytest.mark.parametrize("seed", [0, 71, 2**32 + 1])
    def test_a_block_draws_what_numpy_streams_draw(self, seed):
        spec = ExperimentSpec(ABLATION)
        reps = range(45, 55)
        for rep, (target, flags, scenario_seed) in zip(reps, _compositions(seed, reps, spec)):
            expected = composition_oracle(seed, rep, spec)
            assert (target, flags.tolist(), scenario_seed) == (expected[0], expected[1].tolist(), expected[2])


class TestSynthRoster:
    def test_slots_alternate_groups(self):
        _, flags, _ = composition_oracle(7, 0, ExperimentSpec(COUNT_SWEEP))
        bystanders, consumers = synth_roster(COUNT_SWEEP, 5400.0, 5, flags, 0.0)
        assert [b.id for b in bystanders] == ["b00", "b01", "b02"]
        assert [c.id for c in consumers] == ["c00", "c01"]

    def test_smaller_roster_is_a_prefix(self):
        # slot schedules depend only on the slot index, so adding a reporter
        # leaves every existing reporter untouched
        _, flags, _ = composition_oracle(7, 0, ExperimentSpec(COUNT_SWEEP))
        small = synth_roster(COUNT_SWEEP, 5400.0, 6, flags, 0.25)
        large = synth_roster(COUNT_SWEEP, 5400.0, 7, flags, 0.25)
        assert large[0][: len(small[0])] == small[0]
        assert large[1][: len(small[1])] == small[1]

    def test_adversary_flags_follow_fraction(self):
        _, flags, _ = composition_oracle(7, 0, ExperimentSpec(COUNT_SWEEP))
        all_honest = synth_roster(COUNT_SWEEP, 5400.0, 8, flags, 0.0)
        all_bad = synth_roster(COUNT_SWEEP, 5400.0, 8, flags, 1.0)
        roster = [r.profile.kind for group in all_honest for r in group]
        assert set(roster) == {"honest"}
        roster = [r.profile.kind for group in all_bad for r in group]
        assert set(roster) == {MALICIOUS}

    def test_rosters_fit_inside_the_query_window(self, base):
        _, flags, _ = composition_oracle(7, 0, ExperimentSpec(COUNT_SWEEP))
        for kind in (COUNT_SWEEP, ESTIMATOR_COMPARE):
            bystanders, consumers = synth_roster(kind, 5400.0, 16, flags, 0.5)
            for b in bystanders:
                assert b.schedule.last_offset <= 5400.0
            for c in consumers:
                assert c.usage.usage_end <= 5400.0


def unchecked(scenario, **changes):
    """dataclasses.replace without Scenario's checks."""
    new = object.__new__(Scenario)
    new.__dict__.update(scenario.__dict__, **changes)
    return new


class TestReplications:
    """A block's replications get their provider, seed and rosters from the
    per-sweep slot table, without Scenario's checks; each (replication,
    fraction) must equal the scenario built and checked on its own."""

    def test_vary_provider_overrides_gap(self, base):
        spec = ExperimentSpec(COUNT_SWEEP, trust_range=(0.4, 0.6))
        block = _Sweep(base, spec, [(4, 0.0, ("on",))]).simulate(range(1))
        target, _, _ = composition_oracle(base.seed, 0, spec)
        provider = replace(base.provider, honesty_gap=1.0 - target)
        assert block.ground_truth[0] == ground_truth(provider)
        assert block.ground_truth[0] != ground_truth(base.provider)

    def test_fixed_provider_keeps_gap(self, base):
        spec = ExperimentSpec(ABLATION, vary_provider=False)
        block = _Sweep(base, spec, [(4, 0.0, ("on",))]).simulate(range(3))
        assert block.ground_truth == [ground_truth(base.provider)] * 3

    def test_full_kind_keeps_the_scenario_roster(self, base, session, promise, honest):
        from mlt.agents import ProbeSchedule

        roster = make_scenario(
            session,
            make_provider(promise, honesty_gap=0.2, jitter_rel=0.1),
            bystanders=[Bystander("b00", honest, ProbeSchedule(600.0, 600.0, 2))],
            seed=71,
        )
        spec = ExperimentSpec(FULL)
        sweep = _Sweep(roster, spec, _sweep_points(roster, spec))
        assert [slot.agents for slot in sweep.table.slots] == [roster.bystanders]
        assert sweep.simulate(range(1)).trace(0, 0) == run_scenario(
            variant_oracle(roster, spec, FULL, 1, 0.0, 0))

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_fraction_equals_its_checked_scenario(self, kind):
        base, _ = load_scenario_file(SCENARIO_DIR / "wifi_cafe.json")  # its own roster for "full"
        spec = ExperimentSpec(kind, adversary_frac=0.5)
        sweep = _Sweep(base, spec, _sweep_points(base, spec))
        block = sweep.simulate(range(5))
        for rep in range(5):
            for f, frac in enumerate(sweep.fracs):
                expected = variant_oracle(base, spec, kind, sweep.size, frac, rep)
                assert block.trace(rep, f) == run_scenario(expected)

    def test_the_slot_table_is_checked_once_per_sweep(self, base):
        late = unchecked(base, query_time=9000.0)  # past the 7200 s session
        spec = ExperimentSpec(ABLATION)
        with pytest.raises(ValueError, match=r"^query_time: must lie in \(0, 7200\]"):
            _Sweep(late, spec, _sweep_points(late, spec))


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

    @pytest.mark.parametrize("replications, block, jobs, started",
                             [(2, 1, 4, [2]), (1, 1, 4, []), (3, 1, 2, [2]), (50, 50, 4, []),
                              (51, 50, 4, [2]), (120, 50, 2, [2])])
    def test_pool_is_never_larger_than_the_work(self, base, monkeypatch,
                                                replications, block, jobs, started):
        # the pool maps blocks: no pool for one block, never more workers than blocks
        sizes = []
        real_pool = mlt.experiments.Pool

        def recording_pool(processes):
            sizes.append(processes)
            return real_pool(processes)

        monkeypatch.setattr(mlt.experiments, "Pool", recording_pool)
        monkeypatch.setattr(mlt.experiments, "_BLOCK_SIZE", block)
        spec = ExperimentSpec(COUNT_SWEEP, replications=replications, reporters=2)
        run_experiment_suite(base, spec, jobs=jobs)
        assert sizes == started

    def test_jobs_must_be_positive(self, base):
        with pytest.raises(ValueError):
            run_experiment_suite(base, ExperimentSpec(ABLATION, replications=1), jobs=0)

    def test_sweep_scores_under_the_scenario_mode(self, base):
        verbatim = replace(base, params=replace(base.params, mode=VERBATIM))
        spec = ExperimentSpec(COUNT_SWEEP, replications=REPS)
        sweep = _Sweep(verbatim, spec, _sweep_points(verbatim, spec))
        outcomes = _block_outcomes((sweep, range(REPS)))
        modes_disagree = 0
        for rep in range(REPS):
            args = (verbatim, spec, COUNT_SWEEP, spec.reporters, spec.adversary_frac, rep)
            trace = run_scenario(variant_oracle(*args))
            cr, br = trace.consumer_reports, trace.bystander_reports
            level = {
                mode: _classify_clamped(
                    aggregate(cr, br, replace(verbatim.params, mode=mode)).overall,
                    spec.thresholds,
                )
                for mode in (VERBATIM, NORMALIZED)
            }
            # the last point is the N = spec.reporters one simulated above
            assert outcomes[rep][-1] == level[VERBATIM]
            modes_disagree += level[VERBATIM] != level[NORMALIZED]
        assert modes_disagree > 0  # otherwise the check could not tell the modes apart


class TestCommonRandomNumbers:
    def test_honest_reporters_report_the_same_at_every_point(self):
        scenario, _ = load_scenario_file(SCENARIO_DIR / "acceptance_countsweep.json")
        spec = ExperimentSpec(COUNT_SWEEP, adversary_frac=0.0)
        seen = {"b00": [], "c00": []}
        for n in range(2, spec.reporters + 1):
            trace = run_scenario(variant_oracle(scenario, spec, COUNT_SWEEP, n, 0.0, rep=0))
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
            run_scenario(variant_oracle(base, spec, spec.kind, n, frac, rep))
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


SEAM_REPS = 120  # three default blocks; the 40-replication snapshots fit in one


@pytest.mark.parametrize("kind", KINDS)
def test_output_does_not_depend_on_the_block_size_or_the_pool(kind, monkeypatch):
    scenario, _ = load_scenario_file(SCENARIO_DIR / "wifi_cafe.json")
    spec = ExperimentSpec(kind, replications=SEAM_REPS)
    rows = []

    def recording_score(predicted, actual, config):
        rows.append((list(predicted), list(actual), config))
        return score(predicted, actual, config)

    monkeypatch.setattr(mlt.experiments, "score", recording_score)

    def scored(block, jobs=1):
        monkeypatch.setattr(mlt.experiments, "_BLOCK_SIZE", block)
        rows.clear()
        run_experiment_suite(scenario, spec, jobs=jobs)
        return list(rows)

    expected = scored(mlt.experiments._BLOCK_SIZE)
    assert expected and all(len(predicted) == SEAM_REPS for predicted, _, _ in expected)
    for block in (1, 7, SEAM_REPS):
        assert scored(block) == expected, block
    assert scored(7, jobs=2) == expected


def test_a_scenario_with_many_events_gets_smaller_blocks(base, honest, monkeypatch):
    # 20,000 probes of 3 attributes: 60,000 values per replication, so 4 per block
    probes = Bystander("b00", honest, ProbeSchedule(0.1, 0.1, 20_000))
    scenario = replace(base, bystanders=(probes,))
    spec = ExperimentSpec(FULL, replications=10)
    sweep = _Sweep(scenario, spec, _sweep_points(scenario, spec))
    assert sweep.table.cells == 60_000
    assert sweep.block_size == mlt.experiments._BLOCK_CELLS // 60_000 == 4
    sizes = []

    def recording_outcomes(args):
        sizes.append(len(args[1]))
        return _block_outcomes(args)

    monkeypatch.setattr(mlt.experiments, "_block_outcomes", recording_outcomes)
    blocked = run_experiment_suite(scenario, spec)
    assert sizes == [4, 4, 2]
    # one block of all ten gives the same result
    monkeypatch.setattr(mlt.experiments, "_BLOCK_CELLS", 10 * 60_000)
    sizes.clear()
    assert run_experiment_suite(scenario, spec) == blocked
    assert sizes == [10]
