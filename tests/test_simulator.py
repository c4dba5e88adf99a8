"""Event generation, report collection, and reproducibility of session runs."""

import ast
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mlt.agents import (
    AttributeGenerator,
    ProbeSchedule,
    ProviderProfile,
    ReporterProfile,
    noise_free_performance,
)
from mlt import simulator
from mlt.config import load_scenario_file
from mlt.session import AttributeSchema, AttributeSpec, PerformanceVector, ServiceSession
from mlt.simulator import (
    Bystander,
    Consumer,
    ConsumerUsage,
    Scenario,
    SlotTable,
    own_profiles,
    run_scenario,
    scenario_violations,
)
from mlt.trust import AggregationParams, NoEvidenceError, instantaneous_trust, update_accumulated

from conftest import (
    ACCUMULATE,
    PROBE,
    SAMPLE,
    SCENARIO_DIR,
    assert_matches_the_per_sample_oracle,
    make_provider,
    make_scenario,
    trace_events,
)


def noisy_scenario(session, promise, honest, seed=99):
    """Jittered provider with one bystander and one consumer."""
    provider = make_provider(promise, honesty_gap=0.2, jitter_rel=0.1)
    return make_scenario(
        session,
        provider,
        bystanders=[Bystander("b00", honest, ProbeSchedule(600.0, 1200.0, 3))],
        consumers=[Consumer("c00", honest, ConsumerUsage(0.0, 3600.0, 600.0))],
        seed=seed,
    )


class TestScenarioValidation:
    def test_query_time_must_lie_in_session(self, session, promise):
        provider = make_provider(promise)
        for bad in (0.0, -5.0, 7200.1):
            with pytest.raises(ValueError, match="query_time"):
                make_scenario(session, provider, query_time=bad)

    def test_seed_must_be_non_negative_int(self, session, promise):
        provider = make_provider(promise)
        for bad in (-1, 1.5, "7"):
            with pytest.raises(ValueError, match="seed"):
                make_scenario(session, provider, seed=bad)

    def test_bool_seed_rejected(self, session, promise):
        # True is an int to isinstance, but a scenario file's seed may not be a bool
        scenario = make_scenario(session, make_provider(promise))
        with pytest.raises(ValueError, match="seed"):
            replace(scenario, seed=True)

    def test_a_numpy_integer_seed_runs_as_the_int(self, session, promise, honest):
        scenario = noisy_scenario(session, promise, honest, seed=5)
        for seed in (np.int64(5), np.uint64(5)):
            assert run_scenario(replace(scenario, seed=seed)) == run_scenario(scenario)
        for bad in (True, np.bool_(True)):
            with pytest.raises(ValueError, match=r"^seed: must be a non-negative integer"):
                replace(scenario, seed=bad)

    def test_generator_count_must_match_the_schema(self, session):
        provider = ProviderProfile((AttributeGenerator(10.0),))
        with pytest.raises(ValueError, match=r"^provider: expected 3 attribute generators, got 1$"):
            make_scenario(session, provider)

    def test_duplicate_reporter_ids_rejected(self, session, promise, honest):
        provider = make_provider(promise)
        dupes = [
            Bystander("r0", honest, ProbeSchedule(600.0, 600.0, 1)),
        ]
        consumers = [Consumer("r0", honest, ConsumerUsage(0.0, 600.0, 300.0))]
        with pytest.raises(ValueError, match="unique"):
            make_scenario(session, provider, bystanders=dupes, consumers=consumers)

    def test_overflowing_schedule_names_the_bystander(self, session, promise, honest):
        provider = make_provider(promise)
        late = Bystander("b-late", honest, ProbeSchedule(6000.0, 1200.0, 3))
        with pytest.raises(ValueError, match="b-late"):
            make_scenario(session, provider, bystanders=[late])

    def test_overflowing_usage_names_the_consumer(self, session, promise, honest):
        provider = make_provider(promise)
        long = Consumer("c-long", honest, ConsumerUsage(0.0, 9000.0, 600.0))
        with pytest.raises(ValueError, match="c-long"):
            make_scenario(session, provider, consumers=[long])

    def test_schedules_and_windows_must_end_inside_the_session(self, session, honest):
        short = replace(session, end_time=3600.0)

        def violations(schedule, usage):
            return scenario_violations(short, None, [Bystander("b", honest, schedule)],
                                       [Consumer("c", honest, usage)], 1800.0, 0)

        # ending exactly at the session end fits
        assert violations(ProbeSchedule(2400.0, 600.0, 3), ConsumerUsage(0.0, 3600.0, 600.0)) == []
        assert violations(ProbeSchedule(3000.0, 900.0, 2), ConsumerUsage(0.0, 3700.0, 600.0)) == [
            "bystander 'b': last probe at offset 3900 falls outside the session (duration 3600)",
            "consumer 'c': usage_end 3700 falls outside the session (duration 3600)",
        ]

    def test_a_session_past_the_cell_cap_names_the_reporter_that_passes_it(self, session, honest,
                                                                           monkeypatch):
        # 3 attributes: 3 probes, then 10 samples up to the query time (not
        # the 13 of the whole window), then 1 more sample
        monkeypatch.setattr(simulator, "_MAX_CELLS", 3 * 13)

        def violations(*consumers):
            return scenario_violations(
                session, None, [Bystander("b", honest, ProbeSchedule(600.0, 600.0, 3))],
                [Consumer(f"c{j}", honest, usage) for j, usage in enumerate(consumers)], 5400.0, 0)

        assert violations(ConsumerUsage(0.0, 7200.0, 600.0)) == []
        assert violations(ConsumerUsage(0.0, 7200.0, 600.0), ConsumerUsage(300.0, 900.0, 900.0)) == [
            "consumer 'c1': its events (1) take the session past 39 truth values (events x attributes)"]
        assert violations(ConsumerUsage(0.0, 7200.0, 5e-324)) == [
            "consumer 'c0': its events (inf) take the session past 39 truth values (events x attributes)"]

        # a bystander counts its probes up to the query time too: 21 of 40 here, and
        # none when every probe falls after it
        def probing(first, count=40):
            late = Bystander("b-late", honest, ProbeSchedule(first, 10.0, count))
            return scenario_violations(session, None, [late], [], 5400.0, 0)

        past_the_cap = ("bystander 'b-late': its events (21) take the session past 39 truth "
                        "values (events x attributes)")
        assert probing(5200.0) == [past_the_cap]
        assert probing(5500.0) == []
        # a count past the bisect module's index range is counted as well
        assert probing(5200.0, 2**64)[-1] == past_the_cap

    def test_usage_window_field_checks(self):
        with pytest.raises(ValueError):
            ConsumerUsage(-1.0, 600.0, 300.0)
        with pytest.raises(ValueError):
            ConsumerUsage(600.0, 600.0, 300.0)
        with pytest.raises(ValueError):
            ConsumerUsage(0.0, 600.0, 0.0)


class TestNoiseFreeRun:
    def test_single_honest_bystander_recovers_truth_exactly(self, session, promise, honest):
        # no jitter and no drift: the probe sees the noise-free mean, so the
        # lone report, the aggregate, and the ground truth are the same float
        provider = make_provider(promise, honesty_gap=0.3)
        scenario = make_scenario(
            session,
            provider,
            bystanders=[Bystander("b00", honest, ProbeSchedule(600.0, 1200.0, 3))],
        )
        trace = run_scenario(scenario)
        assert trace.ground_truth_trust == pytest.approx(0.7)
        assert len(trace.bystander_reports) == 1
        report = trace.bystander_reports[0]
        assert report.trust == trace.ground_truth_trust
        assert report.timestamp_offset == 3000.0
        assert trace.final_breakdown.overall == trace.ground_truth_trust

    def test_unanimous_roster_agrees_with_truth(self, tiny_scenario):
        trace = run_scenario(tiny_scenario)
        assert trace.ground_truth_trust == pytest.approx(0.8)
        # EWMA folding of a constant accrues float dust but nothing more
        assert trace.final_breakdown.overall == pytest.approx(
            trace.ground_truth_trust, abs=1e-12
        )

    def test_ground_truth_ignores_jitter_and_query_time(self, session, promise, honest):
        s1 = noisy_scenario(session, promise, honest, seed=1)
        s2 = replace(noisy_scenario(session, promise, honest, seed=2), query_time=900.0)
        assert run_scenario(s1).ground_truth_trust == pytest.approx(0.8)
        assert run_scenario(s2).ground_truth_trust == pytest.approx(0.8)


class TestEventStream:
    def test_probe_and_sample_offsets(self, tiny_scenario):
        events = trace_events(run_scenario(tiny_scenario))
        probes = [e.offset for e in events if e.kind == PROBE]
        samples = [e.offset for e in events if e.kind == SAMPLE]
        assert probes == [600.0, 1800.0, 3000.0]
        assert samples == [0.0 + 600.0 * m for m in range(7)]

    def test_events_sorted_with_sample_before_accumulate(self, session, promise, honest):
        events = trace_events(run_scenario(noisy_scenario(session, promise, honest)))
        keys = [(e.offset, e.reporter_id) for e in events]
        assert keys == sorted(keys)
        for first, second in zip(events, events[1:]):
            if (first.offset, first.reporter_id) == (second.offset, second.reporter_id):
                assert (first.kind, second.kind) == (SAMPLE, ACCUMULATE)

    def test_accumulate_events_replay_from_samples(self, session, promise, honest):
        scenario = noisy_scenario(session, promise, honest)
        trace = run_scenario(scenario)
        events = trace_events(trace)
        samples = [e.value for e in events if e.kind == SAMPLE and e.reporter_id == "c00"]
        folded = [e.value for e in events if e.kind == ACCUMULATE and e.reporter_id == "c00"]
        acc = samples[0]
        assert folded[0] == acc
        for value, expected in zip(samples[1:], folded[1:]):
            acc = update_accumulated(acc, value, scenario.params.alpha)
            assert acc == expected
        assert trace.consumer_reports[0].trust == acc

    def test_shrinking_query_time_only_truncates(self, session, promise, honest):
        full = noisy_scenario(session, promise, honest)
        short = replace(full, query_time=1800.0)
        full_events = trace_events(run_scenario(full))
        short_events = trace_events(run_scenario(short))
        prefix = tuple(e for e in full_events if e.offset <= 1800.0 + 1e-9)
        assert short_events == prefix

    def test_rerun_is_bit_identical(self, session, promise, honest):
        scenario = noisy_scenario(session, promise, honest)
        assert run_scenario(scenario) == run_scenario(scenario)

    def test_adding_a_bystander_leaves_consumers_unchanged(self, session, promise, honest):
        noisy = ReporterProfile("malicious", malicious_strategy="random")
        scenario = replace(
            noisy_scenario(session, promise, honest),
            consumers=(
                Consumer("c00", honest, ConsumerUsage(0.0, 3600.0, 600.0)),
                Consumer("c01", noisy, ConsumerUsage(300.0, 3900.0, 600.0)),
            ),
        )
        grown = replace(
            scenario,
            bystanders=scenario.bystanders + (Bystander("b01", honest, ProbeSchedule(900.0, 1200.0, 3)),),
        )
        before, after = run_scenario(scenario), run_scenario(grown)
        assert after.consumer_reports == before.consumer_reports
        assert len(after.consumer_reports) == 2

        def consumer_events(trace):
            return [e for e in trace_events(trace) if e.reporter_id.startswith("c")]

        assert consumer_events(after) == consumer_events(before)

    def test_different_seeds_differ(self, session, promise, honest):
        a = run_scenario(noisy_scenario(session, promise, honest, seed=1))
        b = run_scenario(noisy_scenario(session, promise, honest, seed=2))
        assert trace_events(a) != trace_events(b)


class TestReportCollection:
    def test_bystander_report_is_latest_probe_at_query_time(self, session, promise, honest):
        scenario = replace(noisy_scenario(session, promise, honest), query_time=2000.0)
        trace = run_scenario(scenario)
        probes = [e for e in trace_events(trace) if e.kind == PROBE]
        assert [e.offset for e in probes] == [600.0, 1800.0]
        report = trace.bystander_reports[0]
        assert (report.timestamp_offset, report.trust) == (1800.0, probes[-1].value)

    def test_consumer_coverage_clipped_at_query_time(self, session, promise, honest):
        provider = make_provider(promise, honesty_gap=0.2, jitter_rel=0.1)
        consumer = Consumer("c00", honest, ConsumerUsage(300.0, 3900.0, 300.0))
        scenario = make_scenario(
            session, provider, consumers=[consumer], query_time=2000.0
        )
        report = run_scenario(scenario).consumer_reports[0]
        assert report.coverage_duration == 1700.0
        assert report.update_count == 6  # samples at 300 .. 1800

    def test_consumer_coverage_stops_at_usage_end(self, session, promise, honest):
        provider = make_provider(promise, honesty_gap=0.2, jitter_rel=0.1)
        consumer = Consumer("c00", honest, ConsumerUsage(300.0, 3900.0, 300.0))
        scenario = make_scenario(session, provider, consumers=[consumer])
        report = run_scenario(scenario).consumer_reports[0]
        assert report.coverage_duration == 3600.0
        assert report.update_count == 13

    def test_reporters_without_events_contribute_no_report(self, session, promise, honest):
        provider = make_provider(promise, honesty_gap=0.2)
        scenario = make_scenario(
            session,
            provider,
            bystanders=[Bystander("b00", honest, ProbeSchedule(600.0, 600.0, 1))],
            consumers=[Consumer("c00", honest, ConsumerUsage(900.0, 1800.0, 300.0))],
            query_time=900.0,  # equals usage_start, so the consumer never samples
        )
        trace = run_scenario(scenario)
        assert trace.consumer_reports == ()
        assert [r.reporter_id for r in trace.bystander_reports] == ["b00"]

    def test_empty_roster_raises(self, session, promise):
        provider = make_provider(promise)
        scenario = make_scenario(session, provider)
        with pytest.raises(NoEvidenceError):
            run_scenario(scenario)


def _grown(scenario):
    """The scenario with a second bystander and a second consumer."""
    honest = ReporterProfile("honest")
    return replace(
        scenario,
        bystanders=scenario.bystanders + (Bystander("b01", honest, ProbeSchedule(900.0, 1200.0, 3)),),
        consumers=scenario.consumers + (Consumer("c01", honest, ConsumerUsage(300.0, 3900.0, 600.0)),),
    )


def _random_reporters(scenario):
    """The scenario with every reporter malicious (random) in its own slot."""
    noisy = ReporterProfile("malicious", malicious_strategy="random")
    return replace(
        scenario,
        bystanders=tuple(replace(b, profile=noisy) for b in scenario.bystanders),
        consumers=tuple(replace(c, profile=noisy) for c in scenario.consumers),
    )


def _shorter(scenario):
    return replace(scenario, query_time=1800.0)


def _two_roster_table(scenario):
    """A slot table of the scenario's agents whose profiles are their own and
    the random one: the table, the picks of the roster as configured, and
    the picks of the roster that turns the first slot of each group random."""
    noisy = ReporterProfile("malicious", malicious_strategy="random")
    agents = scenario.bystanders + scenario.consumers
    profiles, own = own_profiles(agents)
    firsts = [len(profiles) if a in scenario.bystanders[:1] + scenario.consumers[:1] else p
              for a, p in zip(agents, own)]
    table = SlotTable(agents, profiles + (noisy,), scenario.session, scenario.query_time,
                      scenario.params)
    return table, own, firsts


class TestBlocks:
    """A block simulates several replications of one slot table at once, each
    under several rosters; every (replication, roster) must equal the same
    session run alone through run_scenario."""

    @pytest.mark.parametrize("change", [_grown, _shorter, _random_reporters],
                             ids=["roster-size", "shorter-query-time", "honest-vs-random"])
    def test_a_session_in_a_block_equals_it_alone(self, session, promise, honest, change):
        scenario = change(noisy_scenario(session, promise, honest, seed=314))
        table, own, firsts = _two_roster_table(scenario)
        seeds = [314, 2**32 + 5, 0, 7, 2**63 - 1]
        gaps = [0.2, 0.0, 0.5, 0.9, 0.35]
        rosters = [[own, firsts]] * len(seeds)
        block = table.simulate(scenario.provider, gaps, seeds, rosters)
        for r in (0, 2, 4):  # first, middle and last position
            provider = replace(scenario.provider, honesty_gap=gaps[r])
            for f, picks in enumerate((own, firsts)):
                roster = [replace(a, profile=table.profiles[p]) for a, p in zip(table.agents, picks)]
                alone = run_scenario(replace(
                    scenario, provider=provider, seed=seeds[r],
                    bystanders=tuple(a for a in roster if isinstance(a, Bystander)),
                    consumers=tuple(a for a in roster if isinstance(a, Consumer))))
                got = block.trace(r, f)
                assert got == alone
                assert trace_events(got) == trace_events(alone)
                assert table.reports(block.final[r, f].tolist()) == (alone.consumer_reports,
                                                                     alone.bystander_reports)
                assert block.ground_truth[r] == alone.ground_truth_trust == instantaneous_trust(
                    noise_free_performance(provider, promise.schema, [gaps[r]]), promise)[0]

    def test_each_slot_is_drawn_and_observed_once(self, session, promise, honest, monkeypatch):
        scenario = _grown(noisy_scenario(session, promise, honest, seed=314))
        table, own, firsts = _two_roster_table(scenario)
        seeds, gaps = [314, 2**32 + 5, 0], [0.2, 0.0, 0.5]
        events = sum(map(len, table.times))
        assert len(table.offsets) == events  # a slot's events are held once, not per profile
        truth_states, observed = [], []
        philox, observe = np.random.Philox, simulator.observe

        class Philox(philox):  # the state setter checks the class name
            """A Philox that records each truth stream's (key, index, group)
            as a state is set on it."""

            @property
            def state(self):
                return philox.state.__get__(self)

            @state.setter
            def state(self, value):
                key, counter = value["state"]["key"], value["state"]["counter"]
                if counter[1] == simulator._TRUTH:
                    truth_states.append((tuple(key), *counter[2:]))
                philox.state.__set__(self, value)

        def observe_spy(profile, true_trust, own_draws=None):
            observed.append(np.size(true_trust))
            return observe(profile, true_trust, own_draws)

        monkeypatch.setattr(np.random, "Philox", Philox)
        monkeypatch.setattr(simulator, "observe", observe_spy)
        # the rosters give each group's first slot different profiles, and
        # every replication still sets each slot's truth stream once
        table.simulate(scenario.provider, gaps, seeds, [[own, firsts]] * len(seeds))
        assert len(truth_states) == len(set(truth_states)) == len(seeds) * len(table.reporting)
        # one roster: observe sees each event of each replication once
        observed.clear()
        table.simulate(scenario.provider, gaps, seeds, [[firsts]] * len(seeds))
        assert sum(observed) == len(seeds) * events


class TestStreamSeeding:
    """The engine sets stream states on one Generator instead of building a
    stream per agent; its draws must be the ones numpy's own streams give."""

    def test_agent_streams_are_numpys_philox(self, session):
        honest = ReporterProfile("honest")
        schedule, usage = ProbeSchedule(600.0, 600.0, 5), ConsumerUsage(0.0, 3600.0, 900.0)
        # 64 consumers with a bystander after every eighth, so a slot's
        # position is not its index within its group
        agents, keys = [], []  # keys: each slot's (index, group)
        for i in range(64):
            agents.append(Consumer(f"c{i}", honest, usage))
            keys.append((i, 1))
            if i % 8 == 7:
                agents.append(Bystander(f"b{i // 8}", honest, schedule))
                keys.append((i // 8, 0))
        table = SlotTable(agents, (honest,), session, 5400.0, AggregationParams())
        seeds = [0, 1, 2**32, 2**63 - 1, 2**64 + 5, 2**130 + 3]
        # own draws asked for a checkerboard of (replication, slot)
        asked = [[(r + j) % 2 == 0 for j in range(len(agents))] for r in range(len(seeds))]
        noise, own = table._draws(seeds, asked)
        for r, seed in enumerate(seeds):
            key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
            for j, ((start, stop), (index, group)) in enumerate(zip(table.spans, keys)):
                truth, reports = (np.random.Generator(np.random.Philox(
                    key=key, counter=[0, kind, index, group])) for kind in (0, 1))
                events = stop - start
                assert noise[r, start:stop].tolist() == truth.standard_normal((events, 3)).tolist()
                expected = reports.random(events) if asked[r][j] else np.zeros(events)
                assert own[r, start:stop].tolist() == expected.tolist(), (seed, j)

    def test_streams_are_laid_out_in_simulator_only(self):
        # the module docstring's contract: no other module of the package
        # names numpy.random or one of its streams
        streams = {"SeedSequence", "Philox", "default_rng"}

        def references(path):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    dotted = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    dotted = [f"{node.module}.{alias.name}" for alias in node.names]
                elif isinstance(node, ast.Attribute):
                    dotted = [f"{ast.unparse(node.value)}.{node.attr}"]
                elif isinstance(node, ast.Name):
                    dotted = [node.id]
                else:
                    continue
                yield from (m for m in dotted if m.split(".")[-1] in streams
                            or m.startswith(("np.random", "numpy.random")))

        src = Path(simulator.__file__).parent
        found = {path.name: list(references(path)) for path in sorted(src.glob("*.py"))}
        assert found.pop("simulator.py")  # the check sees what it looks for
        assert {name: refs for name, refs in found.items() if refs} == {}

    def test_random_reports_do_not_depend_on_the_attribute_count(self, session, promise):
        # truth and reports come from separate streams, so a provider with
        # more attributes moves no report of a random reporter
        one = AttributeSchema((AttributeSpec("speed", unit="mbps"),))
        one_promise = PerformanceVector((10.0,), one)
        liar = ReporterProfile("malicious", malicious_strategy="random")

        def reports(session, promise):
            provider = make_provider(promise, honesty_gap=0.2, jitter_rel=0.1)
            scenario = make_scenario(session, provider, seed=2026, bystanders=[
                Bystander("b00", liar, ProbeSchedule(600.0, 600.0, 6))])
            return [e.value for e in trace_events(run_scenario(scenario))]

        single = reports(replace(session, promise=one_promise), one_promise)
        assert len(single) == 6
        assert single == reports(session, promise)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda entries: st.lists(st.lists(
        st.sampled_from([0, 2**32 - 1]) | st.integers(0, 2**32 - 1) | st.integers(0, 2**100),
        min_size=entries, max_size=entries), min_size=1, max_size=6)),
        st.integers(max_value=-1))
    def test_seed_states_are_numpys_seed_sequence(self, rows, negative):
        # an entry past 32 bits is several words, so the rows of one call
        # can differ in width
        columns = list(zip(*rows))
        for n in (2, 4):
            expected = [np.random.SeedSequence(row).generate_state(n, np.uint64).tolist()
                        for row in rows]
            assert simulator._seed_states(columns, n).tolist() == expected
        columns[-1] = columns[-1][:-1] + (negative,)
        with pytest.raises(ValueError):
            np.random.SeedSequence(rows[-1][:-1] + [negative])
        with pytest.raises(ValueError):
            simulator._seed_states(columns, 2)

    @pytest.mark.parametrize("seed", [0, 5, 2**32 - 1, 2**32, 2**63 - 1, 2**70,
                                      99999999999999999999999])
    def test_composition_streams_match_numpy(self, seed):
        reps = [0, 1, 49, 50, 2**31, 2**32 + 1]  # the last is two words wide
        uniforms, flags, seeds = simulator.compositions(seed, reps)
        assert flags.shape == (len(reps), simulator.COMPOSITION_FLAGS)
        for r, rep in enumerate(reps):
            expected = np.random.default_rng(np.random.SeedSequence((seed, simulator._COMP_TAG, rep)))
            # the draws come in stream order: the quality, the flags, the scenario seed
            assert uniforms[r] == expected.random()
            assert flags[r].tolist() == expected.random(simulator.COMPOSITION_FLAGS).tolist()
            assert seeds[r] == expected.integers(0, 2**63)

    def test_importing_the_package_does_not_load_numpy_random(self):
        # the setup that perfbench times, and the --jobs 2 parent's footprint
        code = ("import sys; import mlt; from mlt.config import load_scenario_file; "
                f"load_scenario_file({str(SCENARIO_DIR / 'wifi_cafe.json')!r}); "
                "print('numpy.random' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestSamplingDistribution:
    def test_honest_probe_mean_matches_censored_normal(self, schema):
        # single attribute, promise 100, true mean 80, jitter 15: the reported
        # trust is min(1, X) with X ~ N(0.8, 0.15) up to a negligible clamp at
        # zero, and E[min(1, X)] has a closed form via the normal cdf/pdf
        from mlt.agents import AttributeGenerator, ProviderProfile
        from mlt.session import AttributeSchema, AttributeSpec, PerformanceVector, ServiceSession

        one = AttributeSchema((AttributeSpec("speed", unit="mbps"),))
        promise = PerformanceVector((100.0,), one)
        provider = ProviderProfile((AttributeGenerator(80.0, jitter_stddev=15.0),))
        session = ServiceSession(
            id="s-dist",
            location=(48.2, 16.37),
            start_time=0.0,
            end_time=7200.0,
            provider_id="prov",
            service_type="wifi-hotspot",
            promise=promise,
        )
        honest = ReporterProfile("honest")
        bystanders = [
            Bystander(f"b{i:02d}", honest, ProbeSchedule(600.0, 600.0, 1))
            for i in range(8)
        ]
        scenario = make_scenario(session, provider, bystanders=bystanders, seed=2024)

        values = [
            r.trust
            for i in range(500)
            for r in run_scenario(replace(scenario, seed=2024 + i)).bystander_reports
        ]
        assert len(values) == 4000

        mu, s = 0.8, 0.15
        d = (1.0 - mu) / s
        cdf = 0.5 * (1.0 + math.erf(d / math.sqrt(2.0)))
        pdf = math.exp(-0.5 * d * d) / math.sqrt(2.0 * math.pi)
        expected = mu + (1.0 - mu) * (1.0 - cdf) - s * pdf

        assert np.mean(values) == pytest.approx(expected, abs=0.01)


REPORTERS = (
    ReporterProfile("honest"),
    ReporterProfile("biased", bias_offset=0.25),
    ReporterProfile("biased", bias_offset=-0.4),
    ReporterProfile("malicious", malicious_strategy="inverted"),
    ReporterProfile("malicious", malicious_strategy="random"),
)


@st.composite
def mixed_scenarios(draw):
    """Ordinal and continuous attributes, and rosters mixing every reporter kind."""
    specs, promised, gens = [], [], []
    for a in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            levels = tuple(f"L{i}" for i in range(draw(st.integers(2, 5))))
            spec = AttributeSpec(f"a{a}", kind="ordinal", ordinal_levels=levels,
                                 ordinal_base=draw(st.integers(0, 2)))
            lo, hi = spec.level_range
            promised.append(float(draw(st.integers(max(lo, 1), hi))))
            gens.append(AttributeGenerator(draw(st.floats(0.0, hi + 1.0)),
                                           draw(st.floats(0.0, 1.5)), draw(st.floats(-1.0, 1.0))))
        else:
            spec = AttributeSpec(f"a{a}")
            promised.append(draw(st.floats(0.5, 100.0)))
            gens.append(AttributeGenerator(draw(st.floats(0.0, 150.0)),
                                           draw(st.floats(0.0, 20.0)), draw(st.floats(-20.0, 20.0))))
        specs.append(spec)
    schema = AttributeSchema(tuple(specs))
    promise = PerformanceVector(tuple(promised), schema)
    session = ServiceSession("s", (0.0, 0.0), 0.0, 7200.0, "p", "t", promise)
    provider = ProviderProfile(tuple(gens), draw(st.floats(0.0, 1.0)))
    bystanders = [
        Bystander(f"b{i}", draw(st.sampled_from(REPORTERS)),
                  ProbeSchedule(draw(st.floats(1.0, 2000.0)), draw(st.floats(1.0, 1000.0)),
                                draw(st.integers(1, 6))))
        for i in range(draw(st.integers(0, 4)))
    ]
    consumers = []
    for j in range(draw(st.integers(0, 4))):
        start = draw(st.floats(0.0, 3000.0))
        usage = ConsumerUsage(start, start + draw(st.floats(1.0, 4000.0)), draw(st.floats(50.0, 2000.0)))
        consumers.append(Consumer(f"c{j}", draw(st.sampled_from(REPORTERS)), usage))
    assume(bystanders or consumers)
    return make_scenario(session, provider, bystanders, consumers,
                         query_time=draw(st.floats(1.0, 7200.0)),
                         seed=draw(st.integers(0, 2**63 - 1)))


class TestBatchedEngine:
    """run_scenario batches each agent's events; the per-sample loop in
    conftest is the oracle it must match exactly."""

    @pytest.mark.parametrize("seed", [None, 0, 7, 2**63 - 1])
    @pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.json")))
    def test_shipped_scenarios_match_the_oracle(self, name, seed):
        scenario, _ = load_scenario_file(SCENARIO_DIR / name)
        if seed is not None:
            scenario = replace(scenario, seed=seed)
        assert_matches_the_per_sample_oracle(scenario)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mixed_scenarios())
    def test_generated_scenarios_match_the_oracle(self, scenario):
        assert_matches_the_per_sample_oracle(scenario)
