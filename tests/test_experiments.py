"""Sweep bookkeeping: composition draws, synthesized rosters, suite structure."""

import functools
import multiprocessing
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import mlt.experiments
from mlt.cli import format_json
from mlt.agents import MALICIOUS, RANDOM, ProbeSchedule, ReporterProfile, noise_free_performance
from mlt.config import load_scenario_file
from mlt.evaluation import Thresholds, TrustLevel, classify, levels, score
from mlt.experiments import (
    ABLATION,
    COUNT_SWEEP,
    ESTIMATOR_COMPARE,
    FULL,
    KINDS,
    ExperimentSpec,
    _block_outcomes,
    _PROFILES,
    _slot_agents,
    _Sweep,
    _sweep_points,
    run_experiment_suite,
)
from mlt.simulator import (
    _COMP_TAG,
    Bystander,
    Consumer,
    ConsumerUsage,
    Scenario,
    SlotTable,
    compositions,
    run_scenario,
)
from mlt.trust import (
    NORMALIZED,
    VERBATIM,
    AggregationParams,
    aggregate,
    aggregate_overall,
    instantaneous_trust,
)

from conftest import (
    SCENARIO_DIR,
    assert_matches_the_per_sample_oracle,
    make_provider,
    make_scenario,
    trace_events,
)

REPS = 40  # enough replications for structure checks without slowing the suite
LEVELS = tuple(TrustLevel)  # a level index's TrustLevel


def composition_oracle(seed, rep, spec):
    """One replication's (quality, flags, scenario seed), from a stream built by numpy itself."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, _COMP_TAG, rep)))
    lo, hi = spec.trust_range
    target = lo + (hi - lo) * rng.random()
    flags = rng.random(64)
    return target, flags, int(rng.integers(0, 2**63))


def synth_roster(kind, query_time, n_slots, flags, frac):
    """(bystanders, consumers) of the roster whose slot i turns malicious when flags[i] < frac."""
    roster = [replace(a, profile=_PROFILES[int(flags[i] < frac)])
              for i, a in enumerate(_slot_agents(kind, query_time, n_slots))]
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
            for slot, honest in enumerate(_slot_agents(kind, base.query_time, n_reporters))
        ]
        bystanders, consumers = roster[0::2], roster[1::2]
    return replace(base, provider=provider, bystanders=bystanders, consumers=consumers,
                   seed=scenario_seed)


def ground_truth(provider, promise):
    return instantaneous_trust(noise_free_performance(provider, promise.schema,
                                                      [provider.honesty_gap]), promise)[0]


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
        a = compositions(7, [3])
        b = compositions(7, [3])
        assert a[0] == b[0]
        assert (a[1] == b[1]).all()
        assert a[2] == b[2]

    def test_different_reps_differ(self):
        _, _, seeds = compositions(7, [0, 1])
        assert seeds[0] != seeds[1]

    def test_target_respects_trust_range(self, base, monkeypatch):
        # the targets are one minus the honesty gaps the sweep hands the engine
        handed = []
        simulate = SlotTable.simulate

        def spy(table, provider, gaps, seeds, picks):
            handed.append(gaps)
            return simulate(table, provider, gaps, seeds, picks)

        monkeypatch.setattr(SlotTable, "simulate", spy)
        spec = ExperimentSpec(COUNT_SWEEP, trust_range=(0.4, 0.6))
        _Sweep(base, spec, [(4, 0.0, ("on",))]).simulate(range(50))
        (gaps,) = handed
        assert len(gaps) == 50
        for gap in gaps:
            assert 0.4 <= 1.0 - gap <= 0.6

    @pytest.mark.parametrize("seed", [0, 71, 2**32 + 1])
    def test_a_block_draws_what_numpy_streams_draw(self, seed):
        spec = ExperimentSpec(ABLATION)
        lo, hi = spec.trust_range
        reps = range(45, 55)
        uniforms, flags, seeds = compositions(seed, reps)
        assert flags.shape == (len(reps), 64)
        for rep, uniform, rep_flags, scenario_seed in zip(reps, uniforms, flags, seeds.tolist()):
            target = lo + (hi - lo) * uniform
            expected = composition_oracle(seed, rep, spec)
            assert (target, rep_flags.tolist(), scenario_seed) == (expected[0], expected[1].tolist(), expected[2])


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
        assert block.ground_truth[0] == ground_truth(provider, base.session.promise)
        assert block.ground_truth[0] != ground_truth(base.provider, base.session.promise)

    def test_fixed_provider_keeps_gap(self, base):
        spec = ExperimentSpec(ABLATION, vary_provider=False)
        block = _Sweep(base, spec, [(4, 0.0, ("on",))]).simulate(range(3))
        assert block.ground_truth == [ground_truth(base.provider, base.session.promise)] * 3

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
        table = sweep.table
        agents = [replace(a, profile=table.profiles[p]) for a, p in zip(table.agents, sweep.own)]
        assert agents == list(roster.bystanders)
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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_blocks_are_cut_evenly_across_the_pool(self, monkeypatch, jobs):
        inline = SimpleNamespace(map=lambda fn, args: [fn(a) for a in args])  # a pool in-process
        lengths = []

        def recording_outcomes(args):
            lengths.append(len(args[1]))
            return _block_outcomes(args)

        monkeypatch.setattr(mlt.experiments, "Pool", lambda processes: nullcontext(inline))
        monkeypatch.setattr(mlt.experiments, "_block_outcomes", recording_outcomes)
        scenario, _ = load_scenario_file(SCENARIO_DIR / "acceptance_countsweep.json")
        run_experiment_suite(scenario, ExperimentSpec(COUNT_SWEEP, replications=1000), jobs=jobs)
        if jobs == 1:  # as few blocks as _BLOCK_SIZE allows
            assert lengths == [200] * 5
        else:  # 5 blocks of 200 would leave one worker idle for the last one
            assert len(lengths) == 6 and sum(lengths) == 1000
            assert max(lengths) - min(lengths) <= 1

    def test_a_sweep_without_a_pool_does_not_import_multiprocessing(self):
        code = ("import sys; from mlt.config import load_scenario_file; "
                "from mlt.experiments import ABLATION, ExperimentSpec, run_experiment_suite; "
                f"scenario, _ = load_scenario_file({str(SCENARIO_DIR / 'wifi_cafe.json')!r}); "
                "run_experiment_suite(scenario, ExperimentSpec(ABLATION, replications=60), jobs=1); "
                "print('multiprocessing' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("jobs", [0, -1, 1.5, True, np.int64(2)])
    def test_jobs_must_be_positive(self, base, monkeypatch, jobs):
        monkeypatch.setattr(mlt.experiments, "_BLOCK_SIZE", 10)  # several blocks, so a pool starts
        spec = ExperimentSpec(ABLATION, replications=REPS)
        if isinstance(jobs, np.integer):
            assert run_experiment_suite(base, spec, jobs=jobs) == run_experiment_suite(base, spec, jobs=2)
        else:
            with pytest.raises(ValueError, match=r"^jobs must be an integer >= 1"):
                run_experiment_suite(base, spec, jobs=jobs)

    def test_numpy_numbers_run_as_pythons(self, base):
        # the spec's numbers and the scenario seed accept numpy scalars; the
        # results, json output included, are those of Python's numbers
        plain = run_experiment_suite(base, ExperimentSpec(COUNT_SWEEP, replications=REPS, reporters=2,
                                                          adversary_frac=0.25))
        numpy = run_experiment_suite(replace(base, seed=np.int64(base.seed)), ExperimentSpec(
            COUNT_SWEEP, replications=np.int64(REPS), reporters=np.uint8(2),
            adversary_frac=np.float32(0.25)))
        assert format_json(COUNT_SWEEP, numpy) == format_json(COUNT_SWEEP, plain)

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
                mode: classify(
                    aggregate(cr, br, replace(verbatim.params, mode=mode)).overall,
                    spec.thresholds,
                )
                for mode in (VERBATIM, NORMALIZED)
            }
            # the last point is the N = spec.reporters one simulated above; outcomes
            # are level indices into TrustLevel
            assert LEVELS[outcomes[rep][-1]] == level[VERBATIM]
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
                    events = [e for e in trace_events(trace) if e.reporter_id == report.reporter_id]
                    seen[report.reporter_id].append((report, events))
        for reporter_id, runs in seen.items():
            assert len(runs) == spec.reporters - 1, reporter_id
            assert all(run == runs[0] for run in runs), reporter_id


def oracle_points(base, spec):
    """(n_reporters, adversary_frac, arm names) per sweep point, in output order,
    as the README's table of sweep kinds gives them."""
    if spec.kind == ABLATION:
        return [(spec.reporters, f, ("on", "off")) for f in (0.0, spec.adversary_frac)]
    if spec.kind == COUNT_SWEEP:
        return [(n, spec.adversary_frac, ("on",)) for n in range(1, spec.reporters + 1)]
    if spec.kind == ESTIMATOR_COMPARE:
        return [(spec.reporters, 0.0, ("instantaneous", "accumulated"))]
    roster = base.bystanders + base.consumers  # "full": the scenario's own, as declared
    malicious = sum(agent.profile.kind == MALICIOUS for agent in roster)
    return [(len(roster), malicious / len(roster), ("on",))]


def arm_overall(trace, params, arm):
    """The overall trust that an arm gives a session: "on" and "off" score
    every report with and without credibility, "instantaneous" only the
    bystanders' and "accumulated" only the consumers'."""
    consumers = [] if arm == "instantaneous" else trace.consumer_reports
    bystanders = [] if arm == "accumulated" else trace.bystander_reports
    return aggregate(consumers, bystanders, params, use_credibility=arm != "off").overall


def per_point_oracle(base, spec):
    """(predicted, actual) per sweep row, each point simulated from its own scenario.

    Every point of every replication runs its own _variant scenario through
    run_scenario and scores it with aggregate, with no sharing between points.
    """
    rows = []
    for n, frac, arms in oracle_points(base, spec):
        traces = [
            run_scenario(variant_oracle(base, spec, spec.kind, n, frac, rep))
            for rep in range(spec.replications)
        ]
        actual = [classify(t.ground_truth_trust, spec.thresholds) for t in traces]
        for arm in arms:
            predicted = [classify(arm_overall(t, base.params, arm), spec.thresholds)
                         for t in traces]
            rows.append((predicted, actual))
    return rows


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("kind", [COUNT_SWEEP, ABLATION])
def test_simulating_once_matches_the_per_point_oracle(base, kind, jobs, monkeypatch):
    spec = ExperimentSpec(kind, replications=50)
    rows = []

    def recording_score(predicted, actual, config):
        rows.append(([LEVELS[i] for i in predicted], [LEVELS[i] for i in actual]))
        return score(predicted, actual, config)

    monkeypatch.setattr(mlt.experiments, "score", recording_score)
    run_experiment_suite(base, spec, jobs=jobs)
    assert rows == per_point_oracle(base, spec)


# two default blocks; the 40-replication snapshots fit in one
SEAM_REPS = mlt.experiments._BLOCK_SIZE + 20


@functools.cache
def every_kind_oracle(kind):
    """The scenario and spec of a kind's sweep of wifi_cafe.json over SEAM_REPS
    replications, and its oracle rows: ((n_reporters, adversary_frac, arm),
    (predicted, actual)) each.  Computed once per kind."""
    scenario, _ = load_scenario_file(SCENARIO_DIR / "wifi_cafe.json")
    spec = ExperimentSpec(kind, replications=SEAM_REPS)
    points = oracle_points(scenario, spec)
    assert _Sweep(scenario, spec, points).block_size < SEAM_REPS  # the rows cross a block seam
    columns = [(n, frac, arm) for n, frac, arms in points for arm in arms]
    return scenario, spec, list(zip(columns, per_point_oracle(scenario, spec)))


def assert_every_kind_matches_the_oracle(kind, monkeypatch, jobs):
    """Each row that a kind's sweep scores is its every_kind_oracle row."""
    scenario, spec, expected = every_kind_oracle(kind)
    rows = []

    def recording_score(predicted, actual, config):
        arm = config.get("credibility", config.get("estimator", "on"))
        rows.append(((config["reporters"], config["adversary_frac"], arm),
                     ([LEVELS[i] for i in predicted], [LEVELS[i] for i in actual])))
        return score(predicted, actual, config)

    monkeypatch.setattr(mlt.experiments, "score", recording_score)
    run_experiment_suite(scenario, spec, jobs=jobs)
    assert rows == expected


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_matches_the_per_point_oracle_across_a_block_seam(kind, jobs, monkeypatch):
    assert_every_kind_matches_the_oracle(kind, monkeypatch, jobs)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
@pytest.mark.parametrize("kind", KINDS)
def test_output_does_not_depend_on_jobs_under_every_start_method(kind, method, monkeypatch):
    scenario, _ = load_scenario_file(SCENARIO_DIR / "wifi_cafe.json")
    spec = ExperimentSpec(kind, replications=SEAM_REPS)
    started = []

    def pool(processes):
        started.append(processes)
        return multiprocessing.get_context(method).Pool(processes)

    monkeypatch.setattr(mlt.experiments, "Pool", pool)
    parallel = run_experiment_suite(scenario, spec, jobs=2)
    assert started == [2]
    assert parallel == run_experiment_suite(scenario, spec, jobs=1)


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


def assert_blocks_fit_the_cells(scenario, events, sizes, monkeypatch):
    """A "full" sweep of scenario over ten replications counts events x 3
    attributes per replication, runs blocks of the given sizes, and gives the
    same result as one block of all ten."""
    spec = ExperimentSpec(FULL, replications=10)
    sweep = _Sweep(scenario, spec, _sweep_points(scenario, spec))
    cells = events * 3
    assert len(sweep.table.offsets) == events
    assert sweep.table.cells == cells
    assert sweep.block_size == mlt.experiments._BLOCK_CELLS // cells
    run = []

    def recording_outcomes(args):
        run.append(len(args[1]))
        return _block_outcomes(args)

    monkeypatch.setattr(mlt.experiments, "_block_outcomes", recording_outcomes)
    blocked = run_experiment_suite(scenario, spec)
    assert run == sizes
    # one block of all ten gives the same result
    monkeypatch.setattr(mlt.experiments, "_BLOCK_CELLS", 10 * cells)
    run.clear()
    assert run_experiment_suite(scenario, spec) == blocked
    assert run == [10]


def test_a_scenario_with_many_events_gets_smaller_blocks(base, honest, monkeypatch):
    # 20,000 probes of 3 attributes: 60,000 values per replication, so at most
    # 4 per block, and ten replications cut evenly into three blocks
    probes = Bystander("b00", honest, ProbeSchedule(0.1, 0.1, 20_000))
    scenario = replace(base, bystanders=(probes,))
    assert_blocks_fit_the_cells(scenario, 20_000, [3, 3, 4], monkeypatch)


def test_a_ragged_consumer_roster_is_not_padded(base, honest, monkeypatch):
    # one consumer sampling 2,001 times and nine sampling twice: 2,019 events,
    # each consumer's once, not every consumer's padded to the longest (20,010),
    # and a budget of 4 replications' values per block
    consumers = [Consumer("c00", honest, ConsumerUsage(0.0, 2000.0, 1.0))]
    consumers += [Consumer(f"c{j:02d}", honest, ConsumerUsage(0.0, 600.0, 600.0))
                  for j in range(1, 10)]
    scenario = replace(base, consumers=tuple(consumers))
    monkeypatch.setattr(mlt.experiments, "_BLOCK_CELLS", 4 * 2_019 * 3)
    assert_blocks_fit_the_cells(scenario, 2_019, [3, 3, 4], monkeypatch)
    assert_matches_the_per_sample_oracle(scenario)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_trust_value_that_is_not_finite_is_not_classified(bad):
    with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
        levels([0.5, bad], Thresholds())


def test_a_nan_report_gives_an_error_not_a_lowly_level():
    # max(0.0, nan) is 0.0, so a clamp before classifying would make this lowly
    with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
        overall = aggregate_overall([[0.5, np.nan]], [], [0.5, 0.5], AggregationParams())
        levels(overall, Thresholds())


def test_levels_cut_and_reject_as_classify_does():
    th = Thresholds(0.25, 0.75)
    trust = [-0.0, 0.0, 0.2499, 0.25, 0.5, 0.75, 1.0]
    assert [list(TrustLevel)[i] for i in levels(trust, th)] == [
        classify(t, th) for t in trust]
    for bad in (-0.5, 1.5, 1.0000000000000002):
        for classifies in (lambda: levels([0.5, bad], th), lambda: classify(bad, th)):
            with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
                classifies()


def test_a_block_whose_array_scores_differ_from_aggregate_raises(base, monkeypatch):
    real = mlt.experiments.aggregate

    def nudged(*args, **kwargs):
        out = real(*args, **kwargs)
        return replace(out, overall=np.nextafter(out.overall, 2.0))

    monkeypatch.setattr(mlt.experiments, "aggregate", nudged)
    where = r"replication 0, point \(10 reporters, adversary_frac 0.0\), arm 'on'"
    with pytest.raises(RuntimeError, match=where):
        run_experiment_suite(base, ExperimentSpec(ABLATION, replications=3))


def test_a_block_whose_ground_truth_level_differs_from_classify_raises(base, monkeypatch):
    # the sweep does not classify the ground truth (every_kind_oracle checks
    # its levels), so a shifted classify shows at the first column's level
    real = mlt.experiments.classify

    def shifted(trust, thresholds):
        return LEVELS[(LEVELS.index(real(trust, thresholds)) + 1) % 3]

    monkeypatch.setattr(mlt.experiments, "classify", shifted)
    where = r"from classify at replication 0, point \(10 reporters, adversary_frac 0.0\), arm 'on'"
    with pytest.raises(RuntimeError, match=where + ": moderately against highly$"):
        run_experiment_suite(base, ExperimentSpec(ABLATION, replications=3))
